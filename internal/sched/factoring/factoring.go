// Package factoring implements the Factoring scheduling algorithm of
// Flynn Hummel et al. (CACM '92), the robustness-oriented baseline of the
// RUMR paper and the policy of RUMR's phase 2.
//
// Work is allocated in batches of N chunks; every chunk in a batch has
// size remaining/(factor·N) (factor 2 for the classic rule, appropriate
// when execution-time variance is unknown), so chunk sizes halve from
// batch to batch. Dispatch is demand driven — a chunk is sent only when a
// worker has nothing queued, in flight, or computing — which is precisely
// why Factoring overlaps communication and computation poorly and loses to
// multi-round schedules when predictions are good.
//
// Chunk sizes are bounded below: with a known error magnitude the paper
// uses (cLat + nLat·N)/error, otherwise (cLat + nLat·N) as in Hagerup's
// study [15]. On top of that bound we always keep chunks at or above the
// workload's minimal unit so runs terminate even on zero-latency
// platforms (§5's cLat = nLat = 0 corner).
package factoring

import (
	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

// DefaultFactor is the classic factoring divisor.
const DefaultFactor = 2

// MinChunk returns the paper's lower bound on chunk sizes for a platform:
// the overhead of dispatching one round of empty chunks, (cLat + nLat·N)
// — averaged parameters for heterogeneous platforms. The result is
// expressed in workload units via the mean worker speed, and floored at
// minUnit. Callers that know the error magnitude scale it themselves
// (RUMR's Phase2Bound).
func MinChunk(p *platform.Platform, minUnit float64) float64 {
	n := float64(p.N())
	var cLat, nLat, speed float64
	for _, w := range p.Workers {
		cLat += w.CLat
		nLat += w.NLat
		speed += w.S
	}
	cLat /= n
	nLat /= n
	speed /= n
	overhead := cLat + nLat*n // seconds
	bound := overhead * speed // convert seconds of work to units
	if bound < minUnit {
		bound = minUnit
	}
	return bound
}

// Sizer yields factoring chunk sizes: remaining/(DefaultFactor·N) frozen
// per batch of N allocations.
type Sizer struct {
	N       int
	batch   float64 // current batch chunk size
	left    int     // allocations left in the current batch
	batches int     // batches started so far
}

// NewSizer returns a factoring sizer for n workers.
func NewSizer(n int) *Sizer { return &Sizer{N: n} }

// NextSize implements sched.ChunkSizer.
func (s *Sizer) NextSize(_ int, remaining float64) float64 {
	if s.left == 0 {
		s.batch = remaining / (DefaultFactor * float64(s.N))
		s.left = s.N
		s.batches++
	}
	s.left--
	return s.batch
}

// Batches reports how many batches have been started; the demand
// dispatcher uses it to emit batch-boundary events.
func (s *Sizer) Batches() int { return s.batches }

// Reset implements sched.ChunkSizer: the batch progression restarts
// from the first batch, as if freshly constructed.
func (s *Sizer) Reset() {
	s.batch = 0
	s.left = 0
	s.batches = 0
}

// Scheduler adapts Factoring to the sched.Scheduler interface.
//
// The standalone competitor floors chunks only at the workload's minimal
// natural unit: the paper notes that the overhead of scheduling small
// chunks is an issue *inherent* to Factoring [14] that later work ([15],
// and RUMR's own phase-2 design choice iii) addresses, so the plain
// algorithm must not get that mitigation. Set OverheadBound to add the
// [15]-style floor of (cLat + nLat·N) as an ablation.
type Scheduler struct {
	// OverheadBound floors chunks at the one-round dispatch overhead
	// instead of the minimal workload unit.
	OverheadBound bool
}

// Name implements sched.Scheduler.
func (s Scheduler) Name() string {
	if s.OverheadBound {
		return "Factoring-OB"
	}
	return "Factoring"
}

// NewDispatcher implements sched.Scheduler.
func (s Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	min := pr.EffectiveMinUnit()
	if s.OverheadBound {
		min = MinChunk(pr.Platform, min)
	}
	sizer := NewSizer(pr.Platform.N())
	return sched.NewDemand(pr.Total, sizer, min, 2), nil
}
