package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/client"
)

// Shard health states. The router fails fast against a down shard
// instead of burning a dial timeout per request; draining shards still
// serve (the server answers until its drain deadline) but are skipped as
// migration targets.
const (
	shardUp       = int32(0)
	shardDraining = int32(1)
	shardDown     = int32(2)
)

// probeFailThreshold is how many consecutive probe failures mark a shard
// down. One flaky probe (a dropped SYN under chaos) must not down a
// healthy shard.
const probeFailThreshold = 2

// ErrShardDown is the fail-fast refusal for requests routed to a shard
// the prober currently considers dead. It maps to the wire Overloaded
// refusal: the request was NOT processed and may be retried.
var ErrShardDown = errors.New("router: shard down")

// shard is one backend server: its address, lazily dialed client pool,
// and probed health.
type shard struct {
	addr  string
	copts client.Options

	// state holds one of shardUp/shardDraining/shardDown.
	state atomic.Int32
	fails atomic.Int32

	mu     sync.Mutex
	cl     *client.Client
	closed bool
}

func newShard(addr string, copts client.Options) *shard {
	return &shard{addr: addr, copts: copts}
}

// client returns the shard's pooled client, dialing on first use. Dial
// failure leaves the shard clientless; the next call retries.
func (s *shard) client(ctx context.Context) (*client.Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, client.ErrClientClosed
	}
	if s.cl != nil {
		return s.cl, nil
	}
	cl, err := client.DialContext(ctx, s.addr, s.copts)
	if err != nil {
		return nil, err
	}
	s.cl = cl
	return cl, nil
}

func (s *shard) close() {
	s.mu.Lock()
	cl := s.cl
	s.cl = nil
	s.closed = true
	s.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// up reports whether requests should be routed to the shard at all.
func (s *shard) up() bool { return s.state.Load() != shardDown }

// probeLoop drives one shard's health state machine: a periodic
// ServerStats round-trip. Success → up (or draining when the server says
// it is shutting down); probeFailThreshold consecutive failures → down.
// The probe uses the same pool as requests, so a probe that redials
// after a restart also heals the pool.
func (r *Router) probeLoop(sh *shard) {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		r.probeOnce(sh)
		select {
		case <-r.baseCtx.Done():
			return
		case <-t.C:
		}
	}
}

func (r *Router) probeOnce(sh *shard) {
	ctx, cancel := context.WithTimeout(r.baseCtx, r.opts.ProbeTimeout)
	defer cancel()
	cl, err := sh.client(ctx)
	var draining bool
	if err == nil {
		var st, serr = cl.ServerStats(ctx)
		err = serr
		if serr == nil {
			draining = st.Get("draining") != 0
		}
	}
	if err != nil {
		if n := sh.fails.Add(1); n >= probeFailThreshold && sh.state.Load() != shardDown {
			sh.state.Store(shardDown)
			r.stats.ShardDown.Add(1)
			r.opts.Logf("router: shard %s down: %v", sh.addr, err)
		}
		return
	}
	sh.fails.Store(0)
	next := shardUp
	if draining {
		next = shardDraining
	}
	if prev := sh.state.Swap(next); prev == shardDown {
		r.opts.Logf("router: shard %s back up", sh.addr)
	}
}
