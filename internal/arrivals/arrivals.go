// Package arrivals generates job arrival times for open multi-job
// scenarios through a seeded Poisson process. Processes produce
// nondecreasing times starting at or after zero and draw exclusively from
// the rng.Source they are handed, so arrival patterns inherit the
// repo-wide determinism contract — the same seed always yields the same
// workload arrival history.
package arrivals

import (
	"fmt"
	"math"

	"rumr/internal/rng"
)

// Process generates the arrival times of n jobs. Implementations must
// return exactly n nondecreasing, nonnegative, finite times and must take
// all randomness from src.
type Process interface {
	// Name identifies the process in reports ("poisson").
	Name() string
	// Times returns the first n arrival times.
	Times(n int, src *rng.Source) []float64
}

// poisson is a homogeneous Poisson process: i.i.d. exponential
// inter-arrival gaps with the configured rate.
type poisson struct {
	rate float64
}

// Poisson returns a Poisson arrival process with the given rate (expected
// arrivals per unit of simulated time). It panics on a non-positive or
// non-finite rate — arrival processes are constructed from validated sweep
// grids, so a bad rate is a programming error.
func Poisson(rate float64) Process {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("arrivals: invalid poisson rate %g", rate))
	}
	return poisson{rate: rate}
}

func (p poisson) Name() string { return "poisson" }

func (p poisson) Times(n int, src *rng.Source) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		// Inverse-CDF sampling of Exp(rate). Float64 draws in [0,1), so
		// 1-u is in (0,1] and the log is finite.
		t += -math.Log(1-src.Float64()) / p.rate
		out[i] = t
	}
	return out
}

// Validate checks that ts is a legal arrival history: nondecreasing,
// nonnegative, finite. Process implementations outside this package can
// use it as their output contract.
func Validate(ts []float64) error {
	prev := 0.0
	for i, t := range ts {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("arrivals: time %d is invalid (%g)", i, t)
		}
		if t < prev {
			return fmt.Errorf("arrivals: time %d decreases (%g after %g)", i, t, prev)
		}
		prev = t
	}
	return nil
}
