package block

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refBitWriter is the original one-bit-per-step writer, kept as the
// reference the word-at-a-time bitWriter must match byte for byte.
type refBitWriter struct {
	b    []byte
	nbit uint8 // bits used in the final byte (0 = full)
}

func (w *refBitWriter) writeBit(bit uint64) {
	if w.nbit == 0 {
		w.b = append(w.b, 0)
		w.nbit = 8
	}
	w.nbit--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.nbit
	}
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

// refEncodeXOR is encodeXOR written bit by bit on refBitWriter: the
// layout the golden fixtures and every tablet on disk were written with.
func refEncodeXOR(dst []byte, vals []float64) []byte {
	if len(vals) == 0 {
		return dst
	}
	w := refBitWriter{b: dst}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	prevLZ := uint(255)
	prevTZ := uint(0)
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lz := leadingZeros64(x)
		tz := uint(bits.TrailingZeros64(x))
		if lz >= prevLZ && tz >= prevTZ {
			w.writeBit(0)
			w.writeBits(x>>prevTZ, 64-prevLZ-prevTZ)
		} else {
			w.writeBit(1)
			sig := 64 - lz - tz
			w.writeBits(uint64(lz), 5)
			w.writeBits(uint64(sig-1), 6)
			w.writeBits(x>>tz, sig)
			prevLZ, prevTZ = lz, tz
		}
	}
	return w.b
}

// TestBitWriterMatchesReference feeds random (v, n) sequences, n in
// [0, 64] with v carrying bits above n, to both writers. Long writes after
// a few pending bits cross the 64-bit accumulator and take the split path.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type op struct {
		v uint64
		n uint
	}
	check := func(name string, ops []op) {
		t.Helper()
		var w bitWriter
		var ref refBitWriter
		for _, o := range ops {
			w.writeBits(o.v, o.n)
			ref.writeBits(o.v, o.n)
		}
		if got := w.finish(); !bytes.Equal(got, ref.b) {
			t.Fatalf("%s: %v\ngot  %x\nwant %x", name, ops, got, ref.b)
		}
	}
	// Every pending count 0..7 followed by every width 0..64.
	for pend := uint(0); pend < 8; pend++ {
		for n := uint(0); n <= 64; n++ {
			check(fmt.Sprintf("pend=%d n=%d", pend, n), []op{{rng.Uint64(), pend}, {rng.Uint64(), n}, {rng.Uint64(), 3}})
		}
	}
	for i := 0; i < 2000; i++ {
		ops := make([]op, rng.Intn(40))
		for j := range ops {
			n := uint(rng.Intn(65))
			if rng.Intn(4) == 0 {
				n = 57 + uint(rng.Intn(8)) // bias toward the split path
			}
			ops[j] = op{rng.Uint64(), n}
		}
		check(fmt.Sprintf("random sequence %d", i), ops)
	}
}

// xorCases are float series chosen to reach every branch and header
// extreme of the XOR codec.
func xorCases() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff0_0000_0000_0000 | payload) }
	cases := map[string][]float64{
		"empty":    {},
		"single":   {3.5},
		"zeros":    {0, negZero, 0, negZero, negZero},
		"infs":     {math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(1)},
		"nans":     {nan(1), nan(1 << 51), nan(0xf_ffff_ffff_ffff), math.NaN(), -math.NaN(), nan(1)},
		"subnorms": {math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff), -math.SmallestNonzeroFloat64},
		"signflip": {1.5, -1.5, 1.5, -1.5, -1.5, 1.5},
		// XORs with more than 31 leading zeros: the header caps the count.
		"lz-capped": {1, math.Nextafter(1, 2), 1, math.Float64frombits(math.Float64bits(1) ^ 1<<31), 1},
		// XORs spanning bit 63 to bit 0: 64 significant bits.
		"sig64":  {1, math.Float64frombits(math.Float64bits(1) ^ (1<<63 | 1)), 1, math.Float64frombits(^uint64(0)), 0},
		"extrem": {math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0, math.Inf(-1), nan(7)},
	}
	rng := rand.New(rand.NewSource(11))
	gauge, rate, noise, constant := make([]float64, 1000), make([]float64, 1000), make([]float64, 1000), make([]float64, 1000)
	g := 20.0
	for i := range gauge {
		g += rng.Float64() - 0.5
		gauge[i] = g
		constant[i] = 42.5
		rate[i] = float64(1000+rng.Intn(9000)) / 100
		noise[i] = math.Float64frombits(rng.Uint64())
	}
	cases["gauge"], cases["rate"], cases["noise"], cases["constant"] = gauge, rate, noise, constant
	// Runs of 0..70 repeats between changes, so repeat bits sit at every
	// offset before every kind of control, and the series ends mid-run.
	var runs []float64
	for len(runs) < 2000 {
		v := noise[rng.Intn(len(noise))]
		if rng.Intn(2) == 0 {
			v = gauge[rng.Intn(len(gauge))]
		}
		for k := rng.Intn(71); k >= 0; k-- {
			runs = append(runs, v)
		}
	}
	cases["runs"] = runs
	return cases
}

func TestEncodeXORMatchesReference(t *testing.T) {
	for name, vals := range xorCases() {
		want := refEncodeXOR(nil, vals)
		if got := encodeXOR(nil, vals); !bytes.Equal(got, want) {
			t.Fatalf("%s: encodeXOR differs from the reference\ngot  %x\nwant %x", name, got, want)
		}
		// Appending after existing bytes must leave them alone.
		prefix := []byte{0xde, 0xad}
		if got := encodeXOR(append([]byte(nil), prefix...), vals); !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("%s: encodeXOR with a non-empty dst differs", name)
		}
		dec, err := decodeXOR(want, len(vals))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range vals {
			if math.Float64bits(dec[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s: value %d = %x, want %x", name, i, math.Float64bits(dec[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// BenchmarkEncodeXOR measures the XOR float codec per value on series
// shaped like a random-walk gauge, the benchmark's hundredths-resolution
// rate column, and a constant. dst is reused, so it should not allocate.
func BenchmarkEncodeXOR(b *testing.B) {
	cases := xorCases()
	for _, name := range []string{"gauge", "rate", "constant"} {
		vals := cases[name]
		b.Run(name, func(b *testing.B) {
			dst := encodeXOR(nil, vals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = encodeXOR(dst[:0], vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}
