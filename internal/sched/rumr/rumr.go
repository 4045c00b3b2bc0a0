// Package rumr implements RUMR (Robust Uniform Multi-Round), the paper's
// contribution: a two-phase divisible-workload scheduler that combines
// UMR's performance with Factoring's robustness to prediction errors.
//
// Phase 1 precalculates a revised UMR schedule over the first part of the
// workload: chunk sizes grow across rounds for communication/computation
// overlap, and — the revision — a worker that finishes prematurely may be
// served out of plan order. Phase 2 dispatches the rest demand-driven with
// Factoring's decreasing chunk sizes, so the absolute uncertainty of the
// final chunks stays small.
//
// The split (§4.2, design choice i): error × W_total units are reserved
// for phase 2 — unless processing that much work per worker would take
// less time than dispatching one round of empty chunks, cLat + nLat·N, in
// which case phase 2 is skipped. error ≤ 0 degenerates to (revised) UMR;
// error ≥ 1 degenerates to Factoring. When error is unknown a fixed split
// is used instead (the paper recommends 80% phase 1 / 20% phase 2).
//
// Phase 2 chunk sizes are bounded below by (cLat + nLat·N)/error when the
// error is known, (cLat + nLat·N) otherwise (design choice iii).
//
// # Plan memoization
//
// Constructing a RUMR dispatcher is dominated by the phase-1 UMR round
// optimisation. That plan is fully determined by the platform, the
// phase-1 workload share and the minimal unit — not by the random error
// realisation — so Scheduler implements sched.Memoizer: with a memo, the
// plan is solved once per sweep configuration and shared (as an immutable
// chunk list) across all repetitions. The cache key is UMR's
// ("UMR/plan", phase-1 share, minimal unit) on the memo's platform; the
// error magnitude enters only through the share ComputeSplit derives from
// it, so two error values with the same split share one entry, and the
// error-0 plan is literally UMR's. UMR plans read the latencies, so they
// stay in the memo's per-cell tier, never its shared one. Phase 2 (factoring sizer and demand
// pool) carries per-run state and is rebuilt for every dispatcher.
package rumr

import (
	"fmt"
	"math"

	"rumr/internal/engine"
	"rumr/internal/obs"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/umr"
)

// DefaultUnknownErrorSplit is the phase-1 fraction used when the error
// magnitude is unknown; §5.2.1 finds 80% the best fixed choice.
const DefaultUnknownErrorSplit = 0.8

// Split is the phase division RUMR decided for an instance.
type Split struct {
	// Phase1 and Phase2 are the workloads (units) assigned to each phase.
	Phase1, Phase2 float64
	// UsedThreshold reports whether the overhead threshold suppressed an
	// otherwise non-empty phase 2.
	UsedThreshold bool
}

// ComputeSplit applies the paper's heuristic to divide the workload.
// knownError < 0 means the magnitude is unknown, which selects the fixed
// fallback fraction (fixedFrac, or DefaultUnknownErrorSplit if zero).
// fixedFrac in (0, 1] with knownError >= 0 forces a fixed split — the
// RUMR-p% variants of §5.2.1, which bypass the overhead threshold.
func ComputeSplit(pr *sched.Problem, fixedFrac float64) Split {
	total := pr.Total
	if fixedFrac > 0 {
		frac := math.Min(fixedFrac, 1)
		return Split{Phase1: frac * total, Phase2: (1 - frac) * total}
	}
	if !pr.ErrorKnown() {
		return Split{
			Phase1: DefaultUnknownErrorSplit * total,
			Phase2: (1 - DefaultUnknownErrorSplit) * total,
		}
	}
	e := pr.KnownError
	switch {
	case e <= 0:
		return Split{Phase1: total}
	case e >= 1:
		return Split{Phase2: total}
	}
	phase2 := e * total
	// Threshold: the time to process phase 2's per-worker share must be at
	// least the overhead of dispatching one round of empty chunks,
	// cLat + nLat·N (seconds). Work is converted to time with the mean
	// worker speed so the rule generalises beyond the paper's S = 1.
	p := pr.Platform
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
	if (phase2/n)/speed < cLat+nLat*n {
		return Split{Phase1: total, UsedThreshold: true}
	}
	return Split{Phase1: total - phase2, Phase2: phase2}
}

// BoundMode selects how the known error magnitude scales the phase-2
// minimum chunk size (design choice iii). The paper's text says the bound
// is (cLat + nLat·N)/error when the error is known, but that reading is
// inconsistent with its own evaluation: for error < sqrt((cLat+nLat·N)·N/W)
// the bound exceeds phase 2's entire per-worker share, concentrating the
// tail on a few workers and making RUMR lose to UMR across exactly the
// error range where the paper reports it winning. BenchmarkPhase2Bound
// quantifies the three readings; BoundTimesError both reproduces the
// paper's curves and is the only reading consistent with the error → 1
// limit (where RUMR must degenerate to Factoring, whose bound is the
// plain overhead).
type BoundMode int

const (
	// BoundTimesError scales the dispatch overhead by the error:
	// (cLat + nLat·N)·error. Default.
	BoundTimesError BoundMode = iota
	// BoundOverError is the paper text's literal reading:
	// (cLat + nLat·N)/error.
	BoundOverError
	// BoundPlain ignores the error: (cLat + nLat·N), as in the unknown
	// case.
	BoundPlain
)

// NameSuffix is what the mode adds to Scheduler.Name: nothing for the
// default BoundTimesError, "-boundOverError" or "-boundPlain" otherwise.
func (m BoundMode) NameSuffix() string {
	switch m {
	case BoundOverError:
		return "-boundOverError"
	case BoundPlain:
		return "-boundPlain"
	}
	return ""
}

// dispatcher chains the two phases: the static phase-1 plan first, then
// demand-driven factoring over the phase-2 share.
type dispatcher struct {
	phase1   *sched.Static
	phase2   *sched.Demand
	events   obs.Sink
	inPhase2 bool
}

// AttachEvents implements obs.Emitter: the sink is propagated to both
// phases (out-of-order serves, factoring batches) and the 1 -> 2 handoff
// is emitted as a phase transition.
func (d *dispatcher) AttachEvents(sink obs.Sink) {
	d.events = sink
	if d.phase1 != nil {
		d.phase1.AttachEvents(sink)
	}
	if d.phase2 != nil {
		d.phase2.AttachEvents(sink)
	}
}

// Reset implements sched.Replayable: both phases rewind to their
// post-construction state (the phase-2 factoring sizer included) and the
// handoff flag clears, so one dispatcher can replay across the
// repetitions of a sweep cell.
func (d *dispatcher) Reset() {
	if d.phase1 != nil {
		d.phase1.Reset()
	}
	if d.phase2 != nil {
		d.phase2.Reset()
	}
	d.inPhase2 = false
}

// Next implements engine.Dispatcher.
func (d *dispatcher) Next(v *engine.View) (engine.Chunk, bool) {
	if d.phase1 != nil && d.phase1.Remaining() > 0 {
		return d.phase1.Next(v)
	}
	if d.phase2 != nil {
		if !d.inPhase2 {
			d.inPhase2 = true
			if d.events != nil {
				reason := "phase 1 plan exhausted; demand-driven factoring takes over"
				if d.phase1 == nil {
					reason = "no phase 1 (error >= 1); demand-driven factoring from the start"
				}
				d.events.Emit(obs.Event{
					Kind: obs.KindPhaseTransition, Time: v.Time, Worker: -1,
					Seq: -1, Size: d.phase2.Remaining(), Phase: 2, Reason: reason,
				})
			}
		}
		return d.phase2.Next(v)
	}
	return engine.Chunk{}, false
}

// Exhausted implements engine.ExhaustedDispatcher: both phases drained.
// The informed dispatcher fixes the phase split at construction and never
// moves work between phases mid-run, so the condition is permanent. (The
// adaptive variant deliberately does not implement the interface: it can
// create phase 2 mid-run. The fault-tolerant variant inherits it through
// embedding, which is sound: its re-planning only moves phase-1 work that
// is still undispatched, so once both phases drain nothing refills them.)
func (d *dispatcher) Exhausted() bool {
	return (d.phase1 == nil || d.phase1.Exhausted()) &&
		(d.phase2 == nil || d.phase2.Exhausted())
}

// Scheduler adapts RUMR to the sched.Scheduler interface. The zero value
// is the original algorithm; the fields select the paper's §5.2 ablation
// variants, and Name spells every one of them.
type Scheduler struct {
	// FixedPhase1Fraction, when in (0, 1], schedules exactly that fraction
	// of the workload in phase 1 regardless of the error magnitude (the
	// RUMR-50% … RUMR-90% variants of Fig. 6), bypassing the overhead
	// threshold. It must be a whole percent, as the name prints it.
	FixedPhase1Fraction float64
	// PlainPhase1 disables out-of-order dispatch in phase 1 (the Fig. 7
	// variant).
	PlainPhase1 bool
	// Phase2Bound selects the minimum-chunk scaling of design choice
	// (iii); see BoundMode.
	Phase2Bound BoundMode
}

// Name implements sched.Scheduler:
// RUMR[-fixed<pct>][-plain][-boundOverError|-boundPlain].
func (s Scheduler) Name() string {
	name := "RUMR"
	if s.FixedPhase1Fraction > 0 {
		name += fmt.Sprintf("-fixed%.0f", 100*s.FixedPhase1Fraction)
	}
	if s.PlainPhase1 {
		name += "-plain"
	}
	return name + s.Phase2Bound.NameSuffix()
}

// NewDispatcher implements sched.Scheduler.
func (s Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	return s.newDispatcher(pr, nil)
}

// NewDispatcherMemo implements sched.Memoizer: the phase-1 UMR round
// optimisation — the only expensive part of constructing a RUMR
// dispatcher — is cached in m. See the package doc for the cache key.
func (s Scheduler) NewDispatcherMemo(pr *sched.Problem, m *sched.Memo) (engine.Dispatcher, error) {
	return s.newDispatcher(pr, m)
}

// newDispatcher builds the two-phase dispatcher, consulting the memo (may
// be nil) for the phase-1 plan. Phase 2's sizer and demand pool carry
// per-run state and are always fresh.
func (s Scheduler) newDispatcher(pr *sched.Problem, m *sched.Memo) (engine.Dispatcher, error) {
	// Refuse what Name cannot spell, so a name never stands for two
	// schedulers: %.0f would print 0.705 as a neighbouring percent.
	if f := s.FixedPhase1Fraction; f != math.Round(100*f)/100 || f < 0 || f > 1 {
		return nil, fmt.Errorf("rumr: fixed phase-1 fraction %g is not a whole percent in [0, 1]", f)
	}
	if s.Phase2Bound < BoundTimesError || s.Phase2Bound > BoundPlain {
		return nil, fmt.Errorf("rumr: unknown phase-2 bound mode %d", s.Phase2Bound)
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	split := ComputeSplit(pr, s.FixedPhase1Fraction)
	d := &dispatcher{}

	if split.Phase1 > 0 {
		p1 := *pr
		p1.Total = split.Phase1
		chunks, err := umr.BuildChunksMemo(&p1, m)
		if err != nil {
			return nil, fmt.Errorf("rumr: phase 1: %w", err)
		}
		d.phase1 = sched.NewStatic(chunks, !s.PlainPhase1)
	}
	if split.Phase2 > 0 {
		min := s.minChunk(pr)
		sizer := factoring.NewSizer(pr.Platform.N())
		d.phase2 = sched.NewDemand(split.Phase2, sizer, min, 2)
	}
	return d, nil
}

// minChunk applies design choice (iii): the phase-2 chunk floor is the
// one-round dispatch overhead, scaled by the known error magnitude
// according to Phase2Bound (unscaled when the error is unknown or
// outside (0, 1)).
func (s Scheduler) minChunk(pr *sched.Problem) float64 {
	if pr.ErrorKnown() && pr.KnownError >= 1 {
		// Degenerate to plain Factoring, whose only floor is the
		// workload's natural unit.
		return pr.EffectiveMinUnit()
	}
	base := factoring.MinChunk(pr.Platform, pr.EffectiveMinUnit())
	if !pr.ErrorKnown() || pr.KnownError <= 0 {
		return base
	}
	e := pr.KnownError
	var bound float64
	switch s.Phase2Bound {
	case BoundOverError:
		bound = base / e
	case BoundPlain:
		bound = base
	default: // BoundTimesError
		bound = base * e
	}
	if min := pr.EffectiveMinUnit(); bound < min {
		bound = min
	}
	return bound
}
