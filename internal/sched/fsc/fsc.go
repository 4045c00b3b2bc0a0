// Package fsc implements Fixed-Size Chunking, the optimized
// self-scheduling baseline of Hagerup's experimental study [15] that the
// RUMR paper also evaluated (and found worse than Factoring in most
// experiments — a claim our benchmarks reproduce).
//
// All chunks have the same size, chosen once from the Kruskal–Weiss
// formula to balance per-chunk overhead against end-of-run imbalance:
//
//	c = (√2 · R · h / (σ · N · √(ln N)))^(2/3)
//
// with R the total work, h the per-chunk overhead in seconds, σ the
// standard deviation of a unit's execution time and N the worker count.
// When σ is unknown or zero the formula degenerates; we then fall back to
// an even split (R/N, one chunk per worker). Dispatch is demand driven,
// like all self-scheduling policies.
package fsc

import (
	"math"

	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

// ChunkSize computes the fixed chunk size for a problem. err is the known
// error magnitude (σ of the per-unit time as a fraction of its mean); pass
// err <= 0 for "unknown", which yields the even split W/N.
func ChunkSize(p *platform.Platform, total, err, minUnit float64) float64 {
	n := float64(p.N())
	even := total / n
	if err <= 0 {
		return clamp(even, minUnit, even)
	}
	var cLat, nLat, speed float64
	for _, w := range p.Workers {
		cLat += w.CLat
		nLat += w.NLat
		speed += w.S
	}
	cLat /= n
	nLat /= n
	speed /= n
	h := cLat + nLat // per-chunk overhead, seconds
	if h <= 0 {
		// No overhead: smaller chunks are strictly better for balance;
		// floor at the minimal unit.
		return minUnit
	}
	// σ of a unit's execution time in seconds: err × (1/S).
	sigma := err / speed
	c := math.Pow(math.Sqrt2*total*h/(sigma*n*math.Sqrt(math.Log(n+1))), 2.0/3.0)
	return clamp(c, minUnit, even)
}

func clamp(x, lo, hi float64) float64 {
	if hi < lo {
		hi = lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// fixedSizer always returns the same size.
type fixedSizer struct{ size float64 }

// NextSize implements sched.ChunkSizer.
func (f fixedSizer) NextSize(_ int, _ float64) float64 { return f.size }

// Reset implements sched.ChunkSizer; the size is fixed.
func (fixedSizer) Reset() {}

// Scheduler adapts FSC to the sched.Scheduler interface.
type Scheduler struct{}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "FSC" }

// NewDispatcher implements sched.Scheduler.
func (Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	knownErr := 0.0
	if pr.ErrorKnown() {
		knownErr = pr.KnownError
	}
	size := ChunkSize(pr.Platform, pr.Total, knownErr, pr.EffectiveMinUnit())
	return sched.NewDemand(pr.Total, fixedSizer{size}, pr.EffectiveMinUnit(), 0), nil
}
