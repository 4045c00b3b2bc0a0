// Package gss implements Guided Self-Scheduling (Polychronopoulos and
// Kuck, 1987), the classic decreasing-chunk loop-scheduling policy that
// Factoring [14] improved on: each dispatched chunk is 1/N-th of the
// *remaining* work, so sizes decay geometrically per chunk rather than
// per batch. It is not evaluated in the RUMR paper but belongs to the
// same robustness-oriented family and rounds out the baseline suite; the
// extended-baselines benchmark compares it against Factoring and RUMR.
package gss

import (
	"rumr/internal/engine"
	"rumr/internal/sched"
)

// sizer yields remaining/N.
type sizer struct{ n float64 }

// NextSize implements sched.ChunkSizer.
func (s sizer) NextSize(_ int, remaining float64) float64 { return remaining / s.n }

// Reset implements sched.ChunkSizer; GSS keeps no state.
func (sizer) Reset() {}

// Scheduler adapts GSS to the sched.Scheduler interface.
type Scheduler struct{}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "GSS" }

// NewDispatcher implements sched.Scheduler.
func (Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return sched.NewDemand(pr.Total, sizer{n: float64(pr.Platform.N())}, pr.EffectiveMinUnit(), 0), nil
}
