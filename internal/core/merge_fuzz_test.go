package core

import (
	"encoding/binary"
	"testing"

	"littletable/internal/clock"
	"littletable/internal/period"
)

// FuzzMergePolicy fabricates random on-disk tablet sets — arbitrary
// timespans, sizes, busy flags, and ages — and asserts the invariants of
// the merge policy (§3.4.1–§3.4.2) that make parallel maintenance safe:
// a claim never spans time periods, its seed pair satisfies
// |ti| <= 2|ti+1|, its total stays within MaxTabletSize, every input was
// eligible (not busy, at least MergeDelay old), the claimed inputs are
// adjacent in timespan order, and two live claims never share a period or
// an input tablet.
func FuzzMergePolicy(f *testing.F) {
	f.Add([]byte{})
	// Two small same-period tablets, both old enough to merge.
	f.Add([]byte{
		0, 0, 8, 0, 20,
		0, 0, 8, 0, 20,
	})
	// A large-then-small pair (seed rule must reject), then an equal pair.
	f.Add([]byte{
		0, 0, 255, 255, 20,
		0, 0, 1, 0, 20,
		1, 0, 4, 0, 20,
		1, 0, 4, 0, 20,
	})
	// Tablets scattered across many periods, mixed busy/young flags.
	f.Add([]byte{
		0, 0, 8, 0, 0,
		100, 0, 8, 0, 21,
		100, 0, 8, 0, 20,
		200, 1, 8, 0, 4,
		200, 1, 8, 0, 20,
		0, 2, 8, 0, 20,
		0, 2, 8, 0, 20,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const rec = 5 // 2 bytes ts offset, 2 bytes size, 1 byte flags
		nTab := len(data) / rec
		if nTab > 64 {
			nTab = 64
		}
		now := testStart
		opts := Options{
			// Small MaxTabletSize relative to the 16-bit fuzzed sizes, so
			// the size cap actually binds on many inputs.
			MaxTabletSize: 128 << 10,
			MergeDelay:    1 * clock.Second,
		}
		tbl := &Table{
			name:           "fuzz",
			opts:           opts.withDefaults(),
			merging:        make(map[period.Period]bool),
			mergeWaitSince: make(map[period.Period]int64),
		}
		var all []*diskTablet
		busy := map[*diskTablet]bool{}
		for i := 0; i < nTab; i++ {
			b := data[i*rec : (i+1)*rec]
			off := int64(binary.LittleEndian.Uint16(b[0:2])) * clock.Hour / 8
			size := int64(binary.LittleEndian.Uint16(b[2:4])) + 1
			flags := b[4]
			minTs := now - off
			dt := &diskTablet{
				rec: tabletRecord{
					Seq:      uint64(i),
					RowCount: 1,
					MinTs:    minTs,
					MaxTs:    minTs,
					Bytes:    size,
				},
				addedAt: now - int64(flags>>1)*clock.Second/4,
			}
			all = append(all, dt)
			busy[dt] = flags&1 != 0
		}
		tbl.set.Publish(all, nil)
		tbl.set.Claim(func(dt *diskTablet) bool { return busy[dt] })

		checkClaim := func(c *maintClaim, label string) {
			t.Helper()
			ins := c.inputs
			if len(ins) < 2 {
				t.Fatalf("%s: claim with %d inputs; a merge needs at least a pair", label, len(ins))
			}
			p := period.For(ins[0].rec.MinTs, now)
			if p != c.per {
				t.Fatalf("%s: claim period %+v but first input lives in %+v", label, c.per, p)
			}
			var total int64
			for k, dt := range ins {
				if !p.Contains(dt.rec.MinTs) {
					t.Fatalf("%s: input %d (minTs %d) crosses out of period %+v", label, k, dt.rec.MinTs, p)
				}
				if now-dt.addedAt < tbl.opts.MergeDelay {
					t.Fatalf("%s: input %d only %dus old, MergeDelay %dus", label, k, now-dt.addedAt, tbl.opts.MergeDelay)
				}
				total += dt.rec.Bytes
			}
			if ins[0].rec.Bytes > 2*ins[1].rec.Bytes {
				t.Fatalf("%s: seed pair violates |ti| <= 2|ti+1|: %d > 2*%d", label, ins[0].rec.Bytes, ins[1].rec.Bytes)
			}
			if total > tbl.opts.MaxTabletSize {
				t.Fatalf("%s: claim totals %d bytes > MaxTabletSize %d", label, total, tbl.opts.MaxTabletSize)
			}
			first := -1
			for i, dt := range tbl.set.live {
				if dt == ins[0] {
					first = i
					break
				}
			}
			if first < 0 {
				t.Fatalf("%s: claimed input not on disk", label)
			}
			for k, dt := range ins {
				if tbl.set.live[first+k] != dt {
					t.Fatalf("%s: inputs not adjacent in timespan order at offset %d", label, k)
				}
			}
		}

		// Dry pass: the schedule check must not mutate state, and its
		// candidate must already satisfy every policy invariant, including
		// input eligibility (nothing busy).
		dry := tbl.claimMergeLocked(now, true)
		if dry != nil {
			checkClaim(dry, "dry")
			for k, dt := range dry.inputs {
				if dt.claimed() {
					t.Fatalf("dry: input %d busy; dry runs must not claim", k)
				}
			}
		}

		c := tbl.claimMergeLocked(now, false)
		if (c == nil) != (dry == nil) {
			t.Fatalf("dry run found work = %v but real claim found work = %v", dry != nil, c != nil)
		}
		if c == nil {
			return
		}
		checkClaim(c, "claim")
		for k, dt := range c.inputs {
			if !dt.claimed() {
				t.Fatalf("claimed input %d not marked busy", k)
			}
		}
		if !tbl.merging[c.per] {
			t.Fatal("claimed period not in the merging set")
		}

		// A second claim (another worker arriving) must pick a disjoint
		// period and share no input with the first.
		taken := make(map[*diskTablet]bool, len(c.inputs))
		for _, dt := range c.inputs {
			taken[dt] = true
		}
		if c2 := tbl.claimMergeLocked(now, false); c2 != nil {
			checkClaim(c2, "claim2")
			if c2.per == c.per {
				t.Fatal("two concurrent claims on the same period")
			}
			if c2.seq == c.seq {
				t.Fatal("two claims reserved the same output seq")
			}
			for k, dt := range c2.inputs {
				if taken[dt] {
					t.Fatalf("concurrent claims share input %d", k)
				}
			}
		}
	})
}
