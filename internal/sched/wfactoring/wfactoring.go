// Package wfactoring implements Weighted Factoring (Flynn Hummel,
// Schmidt, Uma and Wein, 1996), the heterogeneous-platform refinement of
// Factoring: each batch still allocates half of the remaining workload,
// but within a batch worker i's chunk is proportional to its relative
// speed S_i/ΣS, so fast workers receive proportionally more work per
// request. On homogeneous platforms it coincides exactly with plain
// Factoring — a property the tests pin down.
//
// The RUMR paper restricts its evaluation to homogeneous platforms;
// weighted factoring is the natural phase-2 candidate for the
// heterogeneous setting its prior work [17, 13] covers, and the
// heterogeneous ablation benchmark compares it against plain Factoring
// there.
package wfactoring

import (
	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

// sizer allocates batches of remaining/Factor, split by worker weight.
type sizer struct {
	weights []float64 // S_i / ΣS
	factor  float64
	batch   float64 // total size of the current batch
	left    int     // allocations left in the current batch
	batches int     // batches started so far
}

func newSizer(p *platform.Platform, factor float64) *sizer {
	if factor <= 1 {
		factor = 2
	}
	total := p.TotalSpeed()
	weights := make([]float64, p.N())
	for i, w := range p.Workers {
		weights[i] = w.S / total
	}
	return &sizer{weights: weights, factor: factor}
}

// NextSize implements sched.ChunkSizer.
func (s *sizer) NextSize(worker int, remaining float64) float64 {
	if s.left == 0 {
		s.batch = remaining / s.factor
		s.left = len(s.weights)
		s.batches++
	}
	s.left--
	return s.batch * s.weights[worker]
}

// Batches reports how many batches have been started; the demand
// dispatcher uses it to emit batch-boundary events.
func (s *sizer) Batches() int { return s.batches }

// Reset implements sched.ChunkSizer: the batch progression restarts
// from the first batch (the weights are construction-time constants).
func (s *sizer) Reset() {
	s.batch = 0
	s.left = 0
	s.batches = 0
}

// Scheduler adapts Weighted Factoring to the sched.Scheduler interface.
type Scheduler struct {
	// Factor overrides the batch divisor; zero selects 2.
	Factor float64
}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "WFactoring" }

// NewDispatcher implements sched.Scheduler.
func (s Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return sched.NewDemand(pr.Total, newSizer(pr.Platform, s.Factor),
		pr.EffectiveMinUnit(), 0), nil
}
