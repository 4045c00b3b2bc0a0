package rumr

import (
	"fmt"

	"rumr/internal/engine"
	"rumr/internal/obs"
	"rumr/internal/platform"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/umr"
)

// FaultTolerant is RUMR extended with crash awareness: whenever a worker
// crashes or rejoins while the phase-1 plan is still being played, the
// dispatcher re-plans the remaining phase-1 work as a fresh UMR schedule
// over the surviving workers. A plain RUMR under fault injection survives
// only through the engine's re-dispatch of individually lost chunks; the
// fault-tolerant variant additionally stops aiming new chunks at dead
// workers and re-balances the round structure to the capacity that is
// actually left. Phase 2 needs no re-planning — it is demand-driven, and
// crashed workers simply stop appearing idle.
//
// The zero value wraps the original RUMR; Variant selects an ablation
// variant to wrap instead.
type FaultTolerant struct {
	// Variant configures the underlying RUMR (fixed split, plain phase 1,
	// phase-2 bound).
	Variant Scheduler
}

// Name implements sched.Scheduler.
func (s FaultTolerant) Name() string { return s.Variant.Name() + "-ft" }

// NewDispatcher implements sched.Scheduler.
func (s FaultTolerant) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	base, err := s.Variant.NewDispatcher(pr)
	if err != nil {
		return nil, err
	}
	return &ftDispatcher{
		dispatcher: *base.(*dispatcher),
		orig:       *base.(*dispatcher),
		pr:         *pr,
		variant:    s.Variant,
		down:       make(map[int]bool),
	}, nil
}

// ftDispatcher wraps the two-phase RUMR dispatcher with engine.FaultAware
// re-planning.
type ftDispatcher struct {
	dispatcher
	// orig keeps the post-construction phases: replan replaces the phase
	// pointers outright, so Reset must restore these before rewinding.
	orig    dispatcher
	pr      sched.Problem // copy; Platform is shared read-only
	variant Scheduler
	down    map[int]bool
}

// Reset implements sched.Replayable. The embedded dispatcher's promoted
// Reset would be wrong here — re-planning may have swapped the phases for
// different objects — so the post-construction phases are restored first,
// then rewound, and the crash bookkeeping clears. Event sinks need no
// care: the engine re-attaches them at the start of every traced run.
func (d *ftDispatcher) Reset() {
	d.dispatcher = d.orig
	d.dispatcher.Reset()
	clear(d.down)
}

// OnWorkerDown implements engine.FaultAware.
func (d *ftDispatcher) OnWorkerDown(w int, at float64, v *engine.View) {
	if d.down[w] {
		return
	}
	d.down[w] = true
	d.replan(at, fmt.Sprintf("worker %d crashed", w))
}

// OnWorkerUp implements engine.FaultAware.
func (d *ftDispatcher) OnWorkerUp(w int, at float64, v *engine.View) {
	if !d.down[w] {
		return
	}
	delete(d.down, w)
	d.replan(at, fmt.Sprintf("worker %d rejoined", w))
}

// replan rebuilds the undispatched tail of the phase-1 plan as a new UMR
// schedule over the currently surviving workers. When no uniform schedule
// exists for the remainder (or no worker survives at all, in which case
// work must not be parked on a plan aimed at the dead), the tail moves
// into the demand-driven phase 2 instead, which never targets non-idle
// (hence never dead) workers.
func (d *ftDispatcher) replan(at float64, cause string) {
	if d.phase1 == nil || d.phase1.Remaining() == 0 {
		return // phase 2 is demand-driven; nothing to re-plan
	}
	remaining := d.phase1.RemainingWork()
	survivors := make([]int, 0, d.pr.Platform.N())
	for i := 0; i < d.pr.Platform.N(); i++ {
		if !d.down[i] {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) > 0 {
		sub := &platform.Platform{Workers: make([]platform.Worker, len(survivors))}
		for k, i := range survivors {
			sub.Workers[k] = d.pr.Platform.Workers[i]
		}
		p1 := d.pr
		p1.Platform = sub
		p1.Total = remaining
		if plan, err := umr.Build(&p1); err == nil {
			// The plan indexes the survivor sub-platform; map back to
			// original worker indices before handing it to the engine.
			for k, wi := range plan.Workers {
				plan.Workers[k] = survivors[wi]
			}
			d.phase1 = sched.NewStatic(plan.Chunks(), !d.variant.PlainPhase1)
			if d.events != nil {
				d.phase1.AttachEvents(d.events)
				d.events.Emit(obs.Event{
					Kind: obs.KindDispatchDecision, Time: at, Worker: -1,
					Seq: -1, Size: remaining,
					Reason: fmt.Sprintf("%s: re-planned %g remaining phase-1 units as %d UMR rounds over %d survivors",
						cause, remaining, plan.Rounds, len(survivors)),
				})
			}
			return
		}
	}
	// Fallback: route the tail through demand-driven factoring.
	if d.phase2 == nil {
		sizer := factoring.NewSizer(d.pr.Platform.N())
		d.phase2 = sched.NewDemand(remaining, sizer, d.variant.minChunk(&d.pr), 2)
		if d.events != nil {
			d.phase2.AttachEvents(d.events)
		}
	} else {
		d.phase2.Add(remaining)
	}
	d.phase1 = nil
	if d.events != nil {
		d.events.Emit(obs.Event{
			Kind: obs.KindDispatchDecision, Time: at, Worker: -1,
			Seq: -1, Size: remaining,
			Reason: fmt.Sprintf("%s: no uniform re-plan for %g remaining units; moved to demand-driven phase 2",
				cause, remaining),
		})
	}
}
