// Package tss implements Trapezoid Self-Scheduling (Tzen and Ni, 1993):
// chunk sizes decrease *linearly* from a first size F to a last size L
// over the run, a compromise between GSS's aggressive geometric decay and
// fixed-size chunking. The canonical parameters are F = W/(2N) and
// L = 1 (here: the workload's minimal unit), giving
// K = ceil(2W/(F+L)) chunks with common difference (F-L)/(K-1).
//
// Like GSS it predates the RUMR paper's evaluation but belongs to the
// same self-scheduling family; the extended-baselines benchmark places it
// between Factoring and FSC.
package tss

import (
	"math"

	"rumr/internal/engine"
	"rumr/internal/sched"
)

// sizer walks the arithmetic sequence from first to last.
type sizer struct {
	first float64
	next  float64
	step  float64
	last  float64
}

// NextSize implements sched.ChunkSizer.
func (s *sizer) NextSize(_ int, remaining float64) float64 {
	size := s.next
	if size < s.last {
		size = s.last
	}
	s.next -= s.step
	return size
}

// Reset implements sched.ChunkSizer: the sequence restarts at the
// first chunk size.
func (s *sizer) Reset() { s.next = s.first }

// Scheduler adapts TSS to the sched.Scheduler interface with the
// canonical endpoints: first W/(2N), last the minimal unit.
type Scheduler struct{}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "TSS" }

// NewDispatcher implements sched.Scheduler.
func (Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	first := pr.Total / (2 * float64(pr.Platform.N()))
	last := pr.EffectiveMinUnit()
	if first < last {
		first = last
	}
	k := math.Ceil(2 * pr.Total / (first + last))
	step := 0.0
	if k > 1 {
		step = (first - last) / (k - 1)
	}
	return sched.NewDemand(pr.Total, &sizer{first: first, next: first, step: step, last: last},
		pr.EffectiveMinUnit(), 0), nil
}
