// Package dlt collects closed-form divisible-load-theory results used as
// independent cross-checks on the simulator and the schedulers: the
// classic latency-free one-round schedule (all workers finish together),
// and makespan lower bounds that *every* schedule must respect. The test
// suite simulates each scheduler and asserts its makespan never beats
// these bounds — an end-to-end guard that the engine cannot quietly do
// impossible work.
package dlt

import (
	"errors"
	"math"

	"rumr/internal/fault"
	"rumr/internal/platform"
)

// EqualFinish returns the chunk sizes of the optimal latency-free
// one-round schedule on p: the master sends chunks to workers 0..N-1 in
// order over its serialised port, every worker computes exactly one
// chunk, and all finish simultaneously. The recursion is
//
//	c_{i+1}·(1/B_{i+1} + 1/S_{i+1}) = c_i/S_i
//
// (worker i+1's transfer plus computation fills exactly the time worker i
// still computes), normalised so the chunks sum to total.
func EqualFinish(p *platform.Platform, total float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, errors.New("dlt: non-positive workload")
	}
	n := p.N()
	raw := make([]float64, n)
	raw[0] = 1
	for i := 0; i+1 < n; i++ {
		w := p.Workers[i+1]
		raw[i+1] = raw[i] / p.Workers[i].S / (1/w.B + 1/w.S)
	}
	sum := 0.0
	for _, c := range raw {
		sum += c
	}
	for i := range raw {
		raw[i] *= total / sum
	}
	return raw, nil
}

// EqualFinishMakespan returns the makespan of the EqualFinish schedule
// under the latency-free model: worker 0's transfer plus computation.
func EqualFinishMakespan(p *platform.Platform, total float64) (float64, error) {
	chunks, err := EqualFinish(p, total)
	if err != nil {
		return 0, err
	}
	w := p.Workers[0]
	return chunks[0]/w.B + chunks[0]/w.S, nil
}

// LowerBound returns a makespan lower bound valid for every schedule on
// the platform, under perfect predictions, with a serialised master port:
//
//   - compute bound: even with perfect balance and free communication,
//     W units of work need W/ΣS_i seconds of aggregate computing;
//   - port bound: all input data crosses the master's port serially, at
//     best at the fastest link's rate, and the last byte must still be
//     computed afterwards: W/max(B_i) + (first nLat) is a valid floor on
//     when the port can be done, though not on the makespan itself unless
//     some computation follows — we keep only the safe W/max(B_i) term;
//   - start-up bound: nothing computes before the first transfer and
//     computation latencies have elapsed once.
//
// The returned value is the maximum of the three.
func LowerBound(p *platform.Platform, total float64) float64 {
	if p.N() == 0 || total <= 0 {
		return 0
	}
	computeBound := total / p.TotalSpeed()

	maxB := 0.0
	minNLat := math.Inf(1)
	minCLat := math.Inf(1)
	minStartS := math.Inf(1)
	for _, w := range p.Workers {
		if w.B > maxB {
			maxB = w.B
		}
		if w.NLat < minNLat {
			minNLat = w.NLat
		}
		if w.CLat < minCLat {
			minCLat = w.CLat
		}
		if v := w.NLat + w.CLat; v < minStartS {
			minStartS = v
		}
	}
	portBound := total / maxB
	startBound := minStartS

	return math.Max(computeBound, math.Max(portBound, startBound))
}

// LowerBoundWithFaults tightens LowerBound for a run under a known fault
// schedule: by any time T, the aggregate work the platform can possibly
// have computed is at most Σ_w S_w·Uptime(w, T) — crashed intervals
// contribute nothing, and communication, latencies and lost work only
// make things worse. The makespan therefore cannot beat the least T whose
// surviving capacity covers the workload, found by bisection (capacity is
// non-decreasing in T). Falls back to the static bound when the schedule
// is empty or no surviving capacity ever covers the workload.
func LowerBoundWithFaults(p *platform.Platform, total float64, s *fault.Schedule) float64 {
	lb := LowerBound(p, total)
	if s == nil || s.Empty() {
		return lb
	}
	capacity := func(t float64) float64 {
		c := 0.0
		for i, w := range p.Workers {
			c += w.S * s.Uptime(i, t)
		}
		return c
	}
	lo := lb
	hi := math.Max(lb, 1)
	for capacity(hi) < total {
		hi *= 2
		if hi > 1e18 {
			// Every worker dies for good before the workload fits: no
			// finite fault-aware bound, keep the static one.
			return lb
		}
	}
	for i := 0; i < 100 && hi-lo > 1e-12*hi; i++ {
		mid := 0.5 * (lo + hi)
		if capacity(mid) >= total {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Max(lb, hi)
}
