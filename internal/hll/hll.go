// Package hll implements HyperLogLog, the fixed-size probabilistic set
// representation Dashboard's aggregators use to track distinct clients
// (§4.1.2): it permits unions and yields cardinality estimates with
// bounded relative error, and its fixed size makes it storable as a blob
// column in a LittleTable table.
//
// This is the standard Flajolet–Fusy–Gandouet–Meunier estimator with the
// small-range (linear counting) and large-range corrections.
package hll

import (
	"errors"
	"math"
)

// DefaultPrecision is the register-count exponent p of every sketch the
// aggregators build: m = 2^p registers at one byte each, with standard
// error 1.04/√m. 12 gives 4 kB and ~1.6% error per per-network sketch,
// where 14 would cost 16 kB for ~0.8%.
const DefaultPrecision = 12

// Sketch is a HyperLogLog counter. The zero value is unusable; call New.
type Sketch struct {
	p    uint8
	regs []uint8
}

// Errors returned by the package.
var (
	ErrPrecision = errors.New("hll: precision must be in [4, 16]")
	ErrMismatch  = errors.New("hll: precision mismatch in union")
	ErrCorrupt   = errors.New("hll: corrupt sketch encoding")
)

// New returns an empty sketch with 2^p registers.
func New(p uint8) (*Sketch, error) {
	if p < 4 || p > 16 {
		return nil, ErrPrecision
	}
	return &Sketch{p: p, regs: make([]uint8, 1<<p)}, nil
}

// MustNew is New for constant precisions.
func MustNew(p uint8) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// hash64 is a 64-bit finalizer-mix over FNV-1a, giving well-distributed
// bits from arbitrary keys.
func hash64(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a key.
func (s *Sketch) Add(key []byte) {
	s.AddHash(hash64(key))
}

// AddHash inserts a pre-hashed key.
func (s *Sketch) AddHash(h uint64) {
	idx := h >> (64 - s.p)
	rest := h<<s.p | 1<<(s.p-1) // ensure termination
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// Estimate returns the approximate number of distinct keys added.
func (s *Sketch) Estimate() uint64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := alphaM(len(s.regs))
	est := alpha * m * m / sum
	// Small-range correction: linear counting.
	if est <= 2.5*m && zeros > 0 {
		return uint64(m * math.Log(m/float64(zeros)))
	}
	// Large-range correction for 64-bit hashes is negligible below 2^57;
	// apply the classic 32-bit-era correction only in its regime.
	const two32 = 1 << 32
	if est > two32/30.0 {
		est = -two32 * math.Log(1-est/two32)
	}
	return uint64(est + 0.5)
}

func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge unions other into s: afterwards s estimates the cardinality of the
// union of both key sets. This is what lets aggregators combine per-device
// sketches into per-network ones.
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return ErrMismatch
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	return nil
}

// Marshal serializes the sketch: [p][registers...]. Stored in LittleTable
// blob columns by the client-tracking aggregators.
func (s *Sketch) Marshal() []byte {
	out := make([]byte, 1+len(s.regs))
	out[0] = s.p
	copy(out[1:], s.regs)
	return out
}

// Unmarshal reverses Marshal.
func Unmarshal(b []byte) (*Sketch, error) {
	if len(b) < 1 {
		return nil, ErrCorrupt
	}
	p := b[0]
	if p < 4 || p > 16 {
		return nil, ErrCorrupt
	}
	if len(b) != 1+(1<<p) {
		return nil, ErrCorrupt
	}
	s := &Sketch{p: p, regs: make([]uint8, 1<<p)}
	copy(s.regs, b[1:])
	return s, nil
}
