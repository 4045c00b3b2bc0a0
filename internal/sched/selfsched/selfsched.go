// Package selfsched implements plain greedy self-scheduling: every idle
// worker receives one fixed quantum of work (default: one workload unit,
// or Quantum units). It is the naive baseline the factoring literature
// improves on; the study uses it for sanity checks — every serious policy
// must beat it whenever per-chunk overhead is non-negligible.
package selfsched

import (
	"rumr/internal/engine"
	"rumr/internal/sched"
)

// unitSizer returns a constant quantum.
type unitSizer struct{ quantum float64 }

// NextSize implements sched.ChunkSizer.
func (u unitSizer) NextSize(_ int, _ float64) float64 { return u.quantum }

// Reset implements sched.ChunkSizer; the quantum is constant.
func (unitSizer) Reset() {}

// Scheduler adapts self-scheduling to the sched.Scheduler interface.
type Scheduler struct {
	// Quantum is the fixed chunk size in workload units; zero selects the
	// problem's minimal unit.
	Quantum float64
}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "SelfSched" }

// NewDispatcher implements sched.Scheduler.
func (s Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	q := s.Quantum
	if q <= 0 {
		q = pr.EffectiveMinUnit()
	}
	return sched.NewDemand(pr.Total, unitSizer{q}, pr.EffectiveMinUnit(), 0), nil
}
