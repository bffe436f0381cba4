package hll

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyEstimate(t *testing.T) {
	s := MustNew(12)
	if got := s.Estimate(); got != 0 {
		t.Errorf("empty estimate = %d", got)
	}
}

func TestPrecisionBounds(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("precision 3 accepted")
	}
	if _, err := New(17); err == nil {
		t.Error("precision 17 accepted")
	}
	if _, err := New(4); err != nil {
		t.Error("precision 4 rejected")
	}
}

func TestAccuracyAcrossScales(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000, 200000} {
		s := MustNew(12)
		for i := 0; i < n; i++ {
			s.Add([]byte(fmt.Sprintf("client-%d", i)))
		}
		got := float64(s.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		// Standard error at p=12 is ~1.6%; allow 5 sigma.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %.0f, rel err %.3f", n, got, relErr)
		}
	}
}

func TestDuplicatesDontInflate(t *testing.T) {
	s := MustNew(12)
	for round := 0; round < 10; round++ {
		for i := 0; i < 1000; i++ {
			s.Add([]byte(fmt.Sprintf("client-%d", i)))
		}
	}
	got := float64(s.Estimate())
	if math.Abs(got-1000)/1000 > 0.08 {
		t.Errorf("repeated adds changed estimate to %.0f", got)
	}
}

func TestMerge(t *testing.T) {
	a := MustNew(12)
	b := MustNew(12)
	for i := 0; i < 5000; i++ {
		a.Add([]byte(fmt.Sprintf("a-%d", i)))
		b.Add([]byte(fmt.Sprintf("b-%d", i)))
	}
	// Overlap: half of b's keys also in a.
	for i := 0; i < 2500; i++ {
		a.Add([]byte(fmt.Sprintf("b-%d", i)))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := float64(a.Estimate())
	want := 10000.0 // 5000 a's + 5000 b's, overlap already counted once
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("merged estimate %.0f, want ≈%.0f", got, want)
	}
}

func TestMergeMismatch(t *testing.T) {
	a := MustNew(12)
	b := MustNew(10)
	if err := a.Merge(b); err != ErrMismatch {
		t.Errorf("mismatched merge: %v", err)
	}
}

func TestMergeCommutes(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a1, b1 := MustNew(8), MustNew(8)
		a2, b2 := MustNew(8), MustNew(8)
		for _, x := range xs {
			k := []byte(fmt.Sprint(x))
			a1.Add(k)
			a2.Add(k)
		}
		for _, y := range ys {
			k := []byte(fmt.Sprint(y))
			b1.Add(k)
			b2.Add(k)
		}
		a1.Merge(b1) // a ∪ b
		b2.Merge(a2) // b ∪ a
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := MustNew(10)
	for i := 0; i < 3000; i++ {
		s.Add([]byte(fmt.Sprintf("k%d", i)))
	}
	g, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Estimate() != s.Estimate() || g.p != 10 {
		t.Errorf("round trip: %d vs %d", g.Estimate(), s.Estimate())
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	for _, b := range [][]byte{nil, {12}, {3, 0}, {12, 1, 2, 3}, make([]byte, 100)} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("corrupt %v accepted", b)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	s := MustNew(DefaultPrecision)
	key := []byte("client-mac-00:11:22:33:44:55")
	for i := 0; i < b.N; i++ {
		s.Add(key)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := MustNew(DefaultPrecision)
	for i := 0; i < 100000; i++ {
		s.Add([]byte(fmt.Sprint(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate()
	}
}
