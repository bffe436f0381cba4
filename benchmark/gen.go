package main

import (
	"math"

	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// The generator is the benchmark's single source of truth: every row the
// system is given, and every result the oracle expects back, is a pure
// function of (seed, table, row index).
//
// What the seed may change is deliberately narrow. The engine's merge
// policy compares tablet byte sizes (|t_i| ≤ 2|t_i+1|), and equal-sized
// flushes make that comparison a near-tie, so seed-dependent cell values
// — whose compressed size differs by a fraction of a percent — flip merge
// decisions and cascade: six seeds moved ingest's write amplification by
// 8 % and its allocation per row by 11 %, more than any change the
// benchmark is meant to resolve. So the seed shifts every timestamp by a
// whole number of weeks (rows differ; period boundaries, block contents
// and encoded sizes do not) and drives the order and targets of the
// queries. Structure — devices, row counts, values — is the same for
// every seed.

// The paper's §4 usage-table shape: 10 networks × 50 devices.
const (
	numNetworks       = 10
	devicesPerNetwork = 50
	numDevices        = numNetworks * devicesPerNetwork

	// genBaseTs is 2023-11-15 01:00:00 UTC in µs: one hour into an
	// epoch-aligned day, so the period structure (4-hour boundaries, the
	// day rollover) falls at the same row counts on every run.
	genBaseTs = int64(1_700_006_400+3600) * 1_000_000

	// numericUserBytes is the user-data size of a row's five fixed-width
	// cells (8 bytes per numeric/timestamp value); the tag adds its length.
	numericUserBytes = 5 * 8
)

// tagNames are the string column's values: a small dictionary of
// SSID-like names, as a usage table would hold.
var tagNames = [16]string{
	"corp", "guest", "iot-sensors", "voice", "lab-2.4ghz", "lab-5ghz",
	"warehouse-scanners", "pos", "cameras", "printers", "byod",
	"contractor", "conference-rooms", "lobby", "mesh-backhaul", "mgmt",
}

var (
	tagBytes  [len(tagNames)][]byte
	tagHashes [len(tagNames)]uint64
)

func init() {
	for i, s := range tagNames {
		tagBytes[i] = []byte(s)
		tagHashes[i] = fnv64(tagBytes[i])
	}
}

func benchSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "rate", Type: ltval.Double},
		{Name: "bytes", Type: ltval.Int64},
		{Name: "tag", Type: ltval.String},
	}, []string{"network", "device", "ts"})
}

// generator produces table rows in arrival order: row i belongs to global
// device i mod numDevices and carries timestamp base + i·dt, so devices
// report round-robin, each every numDevices·dt.
type generator struct {
	base int64 // µs; genBaseTs shifted by the seed's whole weeks
	dt   int64 // µs between consecutive rows of one table
}

// seedWeeks is how many distinct week shifts seeds map onto.
const seedWeeks = 52

func newGenerator(seed uint64, dt int64) generator {
	return generator{base: genBaseTs + int64(seed%seedWeeks)*7*24*3600*1_000_000, dt: dt}
}

// cells is one generated row before materialisation.
type cells struct {
	net, dev, ts int64
	rate         float64
	bytes        int64
	tag          int
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (g generator) ts(i int64) int64 { return g.base + i*g.dt }

// at returns row i of the given table.
func (g generator) at(table int, i int64) cells {
	d := i % numDevices
	h := mix64(mix64(uint64(table+1)<<40 ^ uint64(i)))
	return cells{
		net:   d / devicesPerNetwork,
		dev:   d % devicesPerNetwork,
		ts:    g.ts(i),
		rate:  float64(1000+h%9000) / 100,
		bytes: int64((h >> 16) % 1_000_000),
		tag:   int(h >> 60),
	}
}

func (c cells) userBytes() int64 { return numericUserBytes + int64(len(tagNames[c.tag])) }

// fill writes the cells into dst (len 6). The tag aliases a static byte
// slice; nothing the rows are handed to mutates cell bytes.
func (c cells) fill(dst schema.Row) {
	dst[0] = ltval.NewInt64(c.net)
	dst[1] = ltval.NewInt64(c.dev)
	dst[2] = ltval.NewTimestamp(c.ts)
	dst[3] = ltval.NewDouble(c.rate)
	dst[4] = ltval.NewInt64(c.bytes)
	dst[5] = ltval.Value{Type: ltval.String, Bytes: tagBytes[c.tag]}
}

// batch materialises rows [from, from+n) of a table and their user bytes.
func (g generator) batch(table int, from, n int64) ([]schema.Row, int64) {
	rows := make([]schema.Row, n)
	backing := make([]ltval.Value, 6*n)
	var user int64
	for j := int64(0); j < n; j++ {
		c := g.at(table, from+j)
		rows[j] = backing[6*j : 6*j+6 : 6*j+6]
		c.fill(rows[j])
		user += c.userBytes()
	}
	return rows, user
}

// Row hashing for the order-sensitive result checksum. hash (generated
// side) and hashRow (returned side) must agree cell for cell.

func hashCells(net, dev, ts int64, rateBits uint64, bytes int64, tagHash uint64) uint64 {
	h := mix64(uint64(net))
	h = mix64(h ^ uint64(dev))
	h = mix64(h ^ uint64(ts))
	h = mix64(h ^ rateBits)
	h = mix64(h ^ uint64(bytes))
	return mix64(h ^ tagHash)
}

func (c cells) hash() uint64 {
	return hashCells(c.net, c.dev, c.ts, math.Float64bits(c.rate), c.bytes, tagHashes[c.tag])
}

func hashRow(r schema.Row) uint64 {
	if len(r) != 6 {
		return 0
	}
	return hashCells(r[0].Int, r[1].Int, r[2].Int, math.Float64bits(r[3].Float), r[4].Int, fnv64(r[5].Bytes))
}

// foldSum extends an order-sensitive checksum by one row hash.
func foldSum(sum, h uint64) uint64 { return sum*1099511628211 + h }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }

// windowRows returns the inclusive range [iLo, iHi] of table rows among
// the first n with minTs ≤ ts ≤ maxTs — what an AggQuery over that window
// folds. iLo > iHi means none.
func (g generator) windowRows(n, minTs, maxTs int64) (iLo, iHi int64) {
	iLo, iHi = 0, n-1
	if minTs > g.base {
		if v := ceilDiv(minTs-g.base, g.dt); v > iLo {
			iLo = v
		}
	}
	if maxTs < g.ts(n) {
		if v := floorDiv(maxTs-g.base, g.dt); v < iHi {
			iHi = v
		}
	}
	return iLo, iHi
}

// deviceSpan returns the inclusive range [kLo, kHi] of per-device row
// numbers k (device d's k-th row is table row k·numDevices+d) that exist
// among the table's first n rows and have minTs ≤ ts ≤ maxTs. kLo > kHi
// means no rows.
func (g generator) deviceSpan(d, n, minTs, maxTs int64) (kLo, kHi int64) {
	iLo, iHi := g.windowRows(n, minTs, maxTs)
	kLo, kHi = ceilDiv(iLo-d, numDevices), floorDiv(iHi-d, numDevices)
	if kLo < 0 {
		kLo = 0
	}
	return kLo, kHi
}

// scanSpec is one key-range × time-window query in generator terms:
// global devices d0…d1 (inclusive, all in one network so they are
// contiguous in key order), over the table's first n rows.
type scanSpec struct {
	table        int
	n            int64
	d0, d1       int64
	minTs, maxTs int64
	desc         bool
	limit        int64 // 0 = none
}

// expectScan returns the row count and order-sensitive checksum the
// system must return for s.
func (g generator) expectScan(s scanSpec) (count int64, sum uint64) {
	emit := func(d, k int64) bool {
		sum = foldSum(sum, g.at(s.table, k*numDevices+d).hash())
		count++
		return s.limit > 0 && count >= s.limit
	}
	if !s.desc {
		for d := s.d0; d <= s.d1; d++ {
			kLo, kHi := g.deviceSpan(d, s.n, s.minTs, s.maxTs)
			for k := kLo; k <= kHi; k++ {
				if emit(d, k) {
					return
				}
			}
		}
		return
	}
	for d := s.d1; d >= s.d0; d-- {
		kLo, kHi := g.deviceSpan(d, s.n, s.minTs, s.maxTs)
		for k := kHi; k >= kLo; k-- {
			if emit(d, k) {
				return
			}
		}
	}
	return
}
