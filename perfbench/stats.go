package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 over fewer than 100 samples rests on a handful of
// outliers and is not reported.
const minTail = 10

// pctl is one percentile of a sample set, with the count it rests on.
type pctl struct {
	P     float64 // the requested quantile, in (0, 1)
	Value float64
	N     int  // samples in the set
	Tail  int  // samples strictly beyond the percentile's rank
	OK    bool // Tail >= minTail
}

func (p pctl) String() string {
	if !p.OK {
		return fmt.Sprintf("p%g: n/a (n=%d, %d beyond, need %d)", p.P*100, p.N, p.Tail, minTail)
	}
	return fmt.Sprintf("p%g=%.4g (n=%d)", p.P*100, p.Value, p.N)
}

// percentile returns the nearest-rank p-quantile of xs. It is reported
// (OK) only when at least minTail samples rank above it; xs is not
// modified.
func percentile(xs []float64, p float64) pctl {
	n := len(xs)
	out := pctl{P: p, N: n, Value: math.NaN()}
	if n == 0 || p <= 0 || p >= 1 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	out.Value = s[rank-1]
	out.Tail = n - rank
	out.OK = out.Tail >= minTail
	return out
}

// median returns the median of xs (mean of the middle pair for even
// counts), NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0: a layer a workload bypasses has no
// volume, and its per-unit figures read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
