package server

import (
	"fmt"

	"littletable/internal/wire"
)

// Migration endpoints: the send side (begin/fetch/end, serving pinned
// sealed-tablet bytes out of an export snapshot) and the receive side
// (staged chunked installs). The router drives the protocol; shards only
// hold state — an export pin on the source, a staging buffer on the
// target — between paired begin/end or offset-0/commit messages.

// maxStagedBytes bounds the total bytes of partially received tablet
// images across all in-flight installs: an abandoned migration must not
// pin unbounded memory. Large enough for several tablets in flight
// (tablets are typically a few MB; merges can produce tens of MB).
const maxStagedBytes = 256 << 20

// maxFetchBytes caps one MigrateFetch response's data, leaving frame
// headroom under wire.MaxFrame.
const maxFetchBytes = 8 << 20

func (s *Server) handleMigrateBegin(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.MigrateBegin](payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	infos, err := t.BeginExport()
	if err != nil {
		return s.sendErr(wc, err)
	}
	resp := &wire.MigrateManifest{Schema: t.Schema(), TTL: t.TTL()}
	for _, in := range infos {
		resp.Tablets = append(resp.Tablets, wire.MigrateTabletInfo{
			File:     in.File,
			Seq:      in.Seq,
			RowCount: in.RowCount,
			MinTs:    in.MinTs,
			MaxTs:    in.MaxTs,
			Bytes:    in.Bytes,
		})
	}
	return wc.Send(wire.MsgMigrateManifest, resp)
}

func (s *Server) handleMigrateFetch(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.MigrateFetch](payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	n := int(m.MaxBytes)
	if n <= 0 || n > maxFetchBytes {
		n = maxFetchBytes
	}
	if m.Offset < 0 {
		return s.sendErr(wc, fmt.Errorf("server: negative fetch offset"))
	}
	buf := make([]byte, n)
	got, total, err := t.ReadExportAt(m.File, m.Offset, buf)
	if err != nil {
		return s.sendErr(wc, err)
	}
	return wc.Send(wire.MsgMigrateChunk, &wire.MigrateChunk{Total: total, Data: buf[:got]})
}

func (s *Server) handleMigrateEnd(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.MigrateEnd](payload)
	if err != nil {
		return err
	}
	// Drop any staging buffers for the table too: an aborted migration's
	// End releases target-side memory alongside source-side pins.
	s.dropStaged(m.Table)
	t, err := s.Table(m.Table)
	if err != nil {
		// Ending an export on a table that no longer exists is fine: the
		// drop released everything already.
		return s.sendOK(wc)
	}
	t.EndExport()
	return s.sendOK(wc)
}

func (s *Server) handleMigrateInstall(wc *wire.Conn, payload []byte) error {
	m, err := wire.Decode[wire.MigrateInstall](payload)
	if err != nil {
		return err
	}
	t, err := s.Table(m.Table)
	if err != nil {
		return s.sendErr(wc, err)
	}
	if m.Offset < 0 || m.Total < 0 || int64(len(m.Data)) > m.Total-m.Offset {
		return s.sendErr(wc, fmt.Errorf("server: install chunk exceeds advertised total"))
	}
	key := m.Table + "\x00" + m.File

	s.migMu.Lock()
	if s.installs == nil {
		s.installs = make(map[string][]byte)
	}
	staged := s.installs[key]
	if m.Offset == 0 {
		// Offset zero restarts the file: a failed transfer is resumed by
		// re-sending from the start, never by guessing how much arrived.
		s.stagedBytes -= int64(len(staged))
		staged = nil
	} else if int64(len(staged)) != m.Offset {
		got := int64(len(staged))
		s.migMu.Unlock()
		return s.sendErr(wc, fmt.Errorf("server: install offset %d, have %d staged; restart at 0", m.Offset, got))
	}
	if s.stagedBytes+int64(len(m.Data)) > maxStagedBytes {
		s.migMu.Unlock()
		return s.sendErr(wc, fmt.Errorf("server: install staging over %d bytes; retry later", int64(maxStagedBytes)))
	}
	staged = append(staged, m.Data...)
	s.stagedBytes += int64(len(m.Data))
	s.installs[key] = staged
	if !m.Commit {
		s.migMu.Unlock()
		return s.sendOK(wc)
	}
	delete(s.installs, key)
	s.stagedBytes -= int64(len(staged))
	s.migMu.Unlock()

	if int64(len(staged)) != m.Total {
		return s.sendErr(wc, fmt.Errorf("server: install commit with %d of %d bytes staged", len(staged), m.Total))
	}
	if err := t.InstallTablet(staged, m.RowCount, m.MinTs, m.MaxTs); err != nil {
		return s.sendErr(wc, err)
	}
	return s.sendOK(wc)
}

// dropStaged discards all staged install buffers for one table.
func (s *Server) dropStaged(table string) {
	prefix := table + "\x00"
	s.migMu.Lock()
	for k, v := range s.installs {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			s.stagedBytes -= int64(len(v))
			delete(s.installs, k)
		}
	}
	s.migMu.Unlock()
}
