package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 100 draws", same)
	}
}

func TestNewFromOrderSensitive(t *testing.T) {
	a := NewFrom(1, 2)
	b := NewFrom(2, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("NewFrom should be order sensitive")
	}
}

func TestNewFromDeterministic(t *testing.T) {
	a := NewFrom(7, 8, 9).Uint64()
	b := NewFrom(7, 8, 9).Uint64()
	if a != b {
		t.Fatal("NewFrom not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) value %d drawn %d/100000 times, far from uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestTruncNormalBound(t *testing.T) {
	s := New(13)
	for i := 0; i < 50000; i++ {
		x := s.TruncNormal(1, 0.5, 0)
		if x <= 0 {
			t.Fatalf("TruncNormal produced %v <= 0", x)
		}
	}
}

func TestTruncNormalZeroSigma(t *testing.T) {
	s := New(17)
	if got := s.TruncNormal(1, 0, 0); got != 1 {
		t.Fatalf("TruncNormal with sigma=0 = %v, want 1", got)
	}
}

func TestTruncNormalPathological(t *testing.T) {
	s := New(19)
	// Bound far above the mean: rejection cannot realistically succeed, the
	// fallback must still return a value above the bound.
	x := s.TruncNormal(0, 0.001, 100)
	if x <= 100 {
		t.Fatalf("pathological TruncNormal returned %v, want > 100", x)
	}
}

func TestTruncNormalMeanApprox(t *testing.T) {
	// With sd well below the mean the truncation barely bites, so the
	// sample mean should stay near mu.
	s := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.TruncNormal(1, 0.2, 0)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("truncated normal mean = %v, want ~1", mean)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(29)
	for i := 0; i < 10000; i++ {
		x := s.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform(2,5) out of range: %v", x)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child collided %d times", same)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkTruncNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.TruncNormal(1, 0.3, 0)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	var s Source
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, math.MaxUint64} {
		s.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d: Reseed diverged from New at draw %d", seed, i)
			}
		}
	}
}

func TestReseedFromMatchesNewFrom(t *testing.T) {
	var s Source
	cases := [][]uint64{
		{},
		{7},
		{1, 2, 3},
		{2003, 20, math.Float64bits(1.5), math.Float64bits(0.3)},
	}
	for _, parts := range cases {
		s.ReseedFrom(parts...)
		fresh := NewFrom(parts...)
		for i := 0; i < 100; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("parts %v: ReseedFrom diverged from NewFrom at draw %d", parts, i)
			}
		}
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a := New(99)
	b := New(99)
	var child Source
	for round := 0; round < 10; round++ {
		a.SplitInto(&child)
		want := b.Split()
		for i := 0; i < 50; i++ {
			if child.Uint64() != want.Uint64() {
				t.Fatalf("round %d: SplitInto diverged from Split at draw %d", round, i)
			}
		}
	}
}
