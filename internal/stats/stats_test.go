package stats

import (
	"math"
	"testing"

	"rumr/internal/rng"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	want := math.Sqrt(5.0 / 3.0)
	if math.Abs(StdDev(xs)-want) > 1e-12 {
		t.Fatalf("sd = %v, want %v", StdDev(xs), want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("edge cases should be 0")
	}
}

func TestWinRate(t *testing.T) {
	var wr WinRate
	wr.Record(1.0, 1.2, 0)    // win
	wr.Record(1.0, 0.9, 0)    // loss
	wr.Record(1.0, 1.05, 0.1) // within margin: not a win
	wr.Record(1.0, 1.2, 0.1)  // win by >10%
	if wr.Total != 4 || wr.Wins != 2 {
		t.Fatalf("wins/total = %d/%d", wr.Wins, wr.Total)
	}
	if wr.Percent() != 50 {
		t.Fatalf("percent = %v", wr.Percent())
	}
	var empty WinRate
	if empty.Percent() != 0 {
		t.Fatal("empty percent should be 0")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := rng.New(99)
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(src.Normal())
	}
	for i := 0; i < 1000; i++ {
		large.Add(src.Normal())
	}
	if small.CI95() <= large.CI95() {
		t.Fatalf("CI95 should shrink with n: small=%v large=%v", small.CI95(), large.CI95())
	}
}

func TestWelfordSumBitIdentical(t *testing.T) {
	// Sum must be plain left-to-right accumulation, bit for bit — callers
	// use it to reproduce legacy sums-slice arithmetic exactly.
	src := rng.New(7)
	var w Welford
	var plain float64
	for i := 0; i < 1000; i++ {
		x := src.Float64() * 1e3
		w.Add(x)
		plain += x
		if math.Float64bits(w.Sum()) != math.Float64bits(plain) {
			t.Fatalf("after %d adds: Sum() = %x, plain sum = %x",
				i+1, math.Float64bits(w.Sum()), math.Float64bits(plain))
		}
	}
}
