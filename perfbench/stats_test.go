package main

import (
	"strings"
	"testing"
)

func seqSamples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		tail int
		val  float64
	}{
		{99, 0.9, false, 9, 90},
		{100, 0.9, true, 10, 90},
		{1000, 0.9, true, 100, 900},
		{19, 0.5, false, 9, 10},
		{20, 0.5, true, 10, 10},
		{1000, 0.99, true, 10, 990},
		{999, 0.99, false, 9, 990},
	} {
		got := percentile(seqSamples(tc.n), tc.p)
		if got.OK != tc.ok || got.Tail != tc.tail || got.N != tc.n || got.Value != tc.val {
			t.Errorf("percentile(n=%d, p=%g) = %+v, want ok=%v tail=%d value=%g", tc.n, tc.p, got, tc.ok, tc.tail, tc.val)
		}
	}
}

func TestPercentileStatesItsSampleCount(t *testing.T) {
	if s := percentile(seqSamples(100), 0.9).String(); !strings.Contains(s, "n=100") {
		t.Errorf("reported percentile %q does not state its sample count", s)
	}
	if s := percentile(seqSamples(50), 0.9).String(); !strings.Contains(s, "n/a") || !strings.Contains(s, "n=50") {
		t.Errorf("unreportable percentile printed as %q", s)
	}
	if got := percentile(nil, 0.5); got.OK {
		t.Errorf("percentile of no samples reported: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
