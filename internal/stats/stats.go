// Package stats provides the streaming and batch statistics used by the
// experiment harness: Welford accumulators (numerically stable single-pass
// mean/variance), batch mean and standard deviation, and win-rate
// summaries for the paper's relative-makespan reporting.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a running mean and variance in one pass using
// Welford's algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.sum += x
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the plain left-to-right total of the samples. Unlike the
// incrementally updated Mean, Sum()/N() is bit-identical to accumulating
// the samples into a float64 and dividing — which is what lets batch
// consumers replace an explicit sums slice with an accumulator without
// perturbing golden results.
func (w *Welford) Sum() float64 { return w.sum }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean (normal approximation; adequate for the 40+ repetitions used in
// the sweeps).
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// String summarises the accumulator, mostly for debugging and logs.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g", w.n, w.Mean(), w.StdDev(), w.min, w.max)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the unbiased standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// WinRate summarises pairwise comparisons: the fraction of experiments in
// which "ours" beat "theirs", optionally by a margin.
type WinRate struct {
	Wins  int64
	Total int64
}

// Record adds one comparison. ours beats theirs when ours < theirs (these
// are makespans: smaller is better) by more than margin fraction, i.e.
// theirs > ours * (1 + margin).
func (wr *WinRate) Record(ours, theirs, margin float64) {
	wr.Total++
	if theirs > ours*(1+margin) {
		wr.Wins++
	}
}

// Percent returns the win rate in percent (0 if no comparisons).
func (wr *WinRate) Percent() float64 {
	if wr.Total == 0 {
		return 0
	}
	return 100 * float64(wr.Wins) / float64(wr.Total)
}
