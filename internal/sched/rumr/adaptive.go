package rumr

import (
	"fmt"

	"rumr/internal/engine"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/umr"
)

// Adaptive is the paper's future-work variant (§6): RUMR without an a
// priori error magnitude. It starts executing a full UMR plan while
// measuring the prediction error online from completed chunks (the
// predicted/effective duration ratio); once enough completions have been
// observed it estimates `error`, withdraws the matching tail of the UMR
// plan, and dispatches that tail with Factoring — i.e. it makes the
// phase-1/phase-2 split at run time instead of plan time.
//
// Compared with the fixed 80/20 fallback the paper recommends when the
// error is unknown, Adaptive recovers most of the informed scheduler's
// advantage whenever the first rounds are representative of the rest of
// the run (stationary errors, which is also what the paper assumes).
//
// The split waits for max(4, N/2) completed chunks — early enough that the
// plan's tail is still undispatched even for two-round plans.
type Adaptive struct{}

// Name implements sched.Scheduler.
func (Adaptive) Name() string { return "RUMR-adaptive" }

// NewDispatcher implements sched.Scheduler.
func (Adaptive) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	plan, err := umr.Build(pr)
	if err != nil {
		return nil, err
	}
	phase1 := sched.NewStatic(plan.Chunks(), true)
	// Just-in-time dispatch: at most one chunk queued or in flight beyond
	// the one computing, so the plan's tail is still undispatched — and
	// therefore withdrawable — when the measurement completes.
	phase1.MaxPending = 2
	return &adaptiveDispatcher{
		problem:    pr,
		phase1:     phase1,
		minSamples: max(4, pr.Platform.N()/2),
	}, nil
}

// adaptiveDispatcher plays the UMR plan, measures, then splits.
type adaptiveDispatcher struct {
	problem    *sched.Problem
	phase1     *sched.Static
	phase2     *sched.Demand
	est        perferr.Estimator
	minSamples int
	decided    bool
	events     obs.Sink
}

// AttachEvents implements obs.Emitter: the run-time split decision is
// emitted as a phase transition carrying the measured error magnitude.
func (d *adaptiveDispatcher) AttachEvents(sink obs.Sink) {
	d.events = sink
	d.phase1.AttachEvents(sink)
}

// Next implements engine.Dispatcher.
func (d *adaptiveDispatcher) Next(v *engine.View) (engine.Chunk, bool) {
	if d.phase1.Remaining() > 0 {
		return d.phase1.Next(v)
	}
	if d.phase2 != nil {
		return d.phase2.Next(v)
	}
	return engine.Chunk{}, false
}

// OnComplete implements engine.Observer: it feeds the online estimator
// and makes the split decision once enough samples accumulated.
func (d *adaptiveDispatcher) OnComplete(workerIdx int, c engine.Chunk, at, predicted, effective float64) {
	d.est.Observe(predicted, effective)
	if d.decided || d.est.N() < d.minSamples {
		return
	}
	d.decided = true
	e := d.est.Estimate()
	// Reuse the informed scheduler's split heuristic with the measured
	// magnitude, bounded by what is still undispatched.
	measured := *d.problem
	measured.KnownError = e
	split := ComputeSplit(&measured, 0)
	if split.Phase2 <= 0 {
		return
	}
	withdrawn := d.phase1.TrimTail(split.Phase2)
	if withdrawn <= 0 {
		return
	}
	min := (Scheduler{}).minChunk(&measured)
	sizer := factoring.NewSizer(d.problem.Platform.N())
	d.phase2 = sched.NewDemand(withdrawn, sizer, min, 2)
	if d.events != nil {
		d.phase2.AttachEvents(d.events)
		d.events.Emit(obs.Event{
			Kind: obs.KindPhaseTransition, Time: at, Worker: -1,
			Seq: -1, Size: withdrawn, Phase: 2,
			Reason: fmt.Sprintf("adaptive split: measured error %.3f after %d completions; withdrew %.4g units for factoring",
				e, d.est.N(), withdrawn),
		})
	}
}

// Reset implements sched.Replayable: the UMR plan rewinds (entries
// withdrawn by the split included), the phase-2 dispatcher and the
// estimator are dropped, and the split decision is undone, so one
// dispatcher can replay across the repetitions of a sweep cell.
func (d *adaptiveDispatcher) Reset() {
	d.phase1.Reset()
	d.phase2 = nil
	d.est = perferr.Estimator{}
	d.decided = false
}

// Estimate exposes the measured error magnitude (0 until enough samples).
func (d *adaptiveDispatcher) Estimate() float64 { return d.est.Estimate() }
