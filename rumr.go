package rumr

import (
	"rumr/internal/engine"
	"rumr/internal/fault"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/fsc"
	"rumr/internal/sched/gss"
	"rumr/internal/sched/mi"
	rumrsched "rumr/internal/sched/rumr"
	"rumr/internal/sched/selfsched"
	"rumr/internal/sched/tss"
	"rumr/internal/sched/umr"
	"rumr/internal/sched/wfactoring"
	"rumr/internal/trace"
	"rumr/internal/workload"
)

// Worker describes one worker of the star platform: compute speed S
// (units/s), link rate B (units/s), computation latency CLat, transfer
// latency NLat and the overlappable transfer tail TLat (seconds).
type Worker = platform.Worker

// Platform is a master and its workers.
type Platform = platform.Platform

// Problem is a scheduling instance: a platform, a total workload and the
// error magnitude known to the scheduler.
type Problem = sched.Problem

// Scheduler is any divisible-workload scheduling algorithm.
type Scheduler = sched.Scheduler

// Result summarises one simulated execution.
type Result = engine.Result

// Trace is the per-chunk record of one execution; its Validate method
// re-checks the schedule against the platform model.
type Trace = trace.Trace

// Workload describes a divisible application in abstract units.
type Workload = workload.Workload

// Event is one observable state change of a simulated run; EventSink
// receives them as they happen (see internal/obs for ready-made sinks and
// trace.NewPerfettoSink for live trace-viewer export).
type Event = obs.Event

// EventSink consumes simulation events.
type EventSink = obs.Sink

// FaultSchedule is a deterministic list of fault events (crashes, rejoins,
// link outages, slowdowns) replayed during a run.
type FaultSchedule = fault.Schedule

// FaultEvent is one scheduled fault.
type FaultEvent = fault.Event

// FaultKind enumerates the kinds of fault a FaultEvent can inject.
type FaultKind = fault.Kind

// FaultScenario draws random fault schedules from per-worker rates; use it
// to put a crash-rate axis on a resilience sweep.
type FaultScenario = fault.Scenario

// Recovery is the engine-side loss-detection and re-dispatch policy; the
// zero value disables recovery (lost work stays lost).
type Recovery = fault.Recovery

// Fault event kinds, re-exported for building schedules by hand.
const (
	WorkerCrash  = fault.Crash
	WorkerRejoin = fault.Rejoin
	LinkDown     = fault.LinkDown
	LinkUp       = fault.LinkUp
	SlowStart    = fault.SlowStart
	SlowEnd      = fault.SlowEnd
)

// DefaultRecovery returns a sensible re-dispatch policy: recovery enabled,
// per-chunk completion timeouts at 4x the predicted completion time (with
// exponential backoff across attempts) and unlimited attempts.
func DefaultRecovery() Recovery {
	return Recovery{Enabled: true, TimeoutFactor: 4}
}

// HomogeneousPlatform builds a platform of n identical workers — the
// paper's experimental setup (Table 1 uses S=1 and B = r·N).
func HomogeneousPlatform(n int, s, b, cLat, nLat float64) *Platform {
	return platform.Homogeneous(n, s, b, cLat, nLat)
}

// RUMR returns the paper's algorithm: UMR phase 1 (with out-of-order
// dispatch) and Factoring phase 2, split by the known error magnitude.
func RUMR() Scheduler { return rumrsched.Scheduler{} }

// RUMRFixedSplit returns the §5.2.1 variant that puts exactly frac of the
// workload in phase 1 regardless of the error magnitude. frac must be a
// whole percent in (0, 1] (0.8, not 0.805), as the variant's name
// RUMR-fixed80 carries it; other values fail at simulation time.
func RUMRFixedSplit(frac float64) Scheduler {
	return rumrsched.Scheduler{FixedPhase1Fraction: frac}
}

// RUMRPlainPhase1 returns the §5.2.2 variant whose phase 1 dispatches
// strictly in plan order.
func RUMRPlainPhase1() Scheduler { return rumrsched.Scheduler{PlainPhase1: true} }

// RUMRAdaptive returns the paper's future-work variant (§6): RUMR that
// needs no a priori error magnitude — it measures the error online from
// completed chunks and makes the phase split at run time.
func RUMRAdaptive() Scheduler { return rumrsched.Adaptive{} }

// RUMRFaultTolerant returns RUMR extended with crash awareness: when a
// worker crashes (or rejoins) during phase 1, the remaining phase-1 work
// is re-planned as a fresh UMR schedule over the surviving workers.
// Combine it with SimOptions.Faults and SimOptions.Recovery.
func RUMRFaultTolerant() Scheduler { return rumrsched.FaultTolerant{} }

// UMR returns the Uniform Multi-Round algorithm of [17, 13] — RUMR's
// performance-oriented ancestor.
func UMR() Scheduler { return umr.Scheduler{} }

// MI returns the Multi-Installment algorithm of [18] with x installments
// (the paper evaluates MI-1 through MI-4; MI-1 is the classic one-round
// schedule).
func MI(x int) Scheduler { return mi.Scheduler{Installments: x} }

// Factoring returns the robustness-oriented baseline of [14].
func Factoring() Scheduler { return factoring.Scheduler{} }

// FSC returns Fixed-Size Chunking [15].
func FSC() Scheduler { return fsc.Scheduler{} }

// SelfScheduling returns greedy self-scheduling with the given fixed
// quantum (0 selects one workload unit). The name carries the quantum
// (SelfSched-64), so results of different quanta never share a cache
// entry; a negative or non-finite quantum fails at simulation time.
func SelfScheduling(quantum float64) Scheduler {
	return selfsched.Scheduler{Quantum: quantum}
}

// GSS returns Guided Self-Scheduling (Polychronopoulos and Kuck '87):
// every chunk is 1/N of the remaining work.
func GSS() Scheduler { return gss.Scheduler{} }

// TSS returns Trapezoid Self-Scheduling (Tzen and Ni '93): chunk sizes
// decrease linearly from W/(2N) to one unit.
func TSS() Scheduler { return tss.Scheduler{} }

// WeightedFactoring returns Weighted Factoring (Hummel et al. '96):
// Factoring batches split proportionally to worker speed — the natural
// heterogeneous-platform refinement.
func WeightedFactoring() Scheduler { return wfactoring.Scheduler{} }

// ErrorModel selects the prediction-error distribution of a simulation.
type ErrorModel = perferr.Kind

const (
	// NormalError is the paper's model: the predicted/effective ratio is
	// normal with mean 1 and sd = Error, truncated positive.
	NormalError = perferr.NormalError
	// UniformError uses a uniform ratio with the same mean and sd.
	UniformError = perferr.UniformError
)

// SimOptions configure a single simulated execution.
type SimOptions struct {
	// Error is the true prediction-error magnitude applied to transfer and
	// computation durations.
	Error float64
	// SchedulerError overrides what the scheduler is told: nil means "the
	// scheduler knows Error exactly"; a pointer to -1 means "unknown".
	SchedulerError *float64
	// Model selects the error distribution.
	Model ErrorModel
	// Seed makes the run reproducible.
	Seed uint64
	// RecordTrace attaches a full per-chunk trace to the result.
	RecordTrace bool
	// MinUnit is the workload's minimal unit (default 1).
	MinUnit float64
	// ParallelSends lets the master run that many transfers concurrently
	// (0 or 1 = the paper's serialised port; more = the future-work WAN
	// extension).
	ParallelSends int
	// Events, when non-nil, receives every state change of the run as it
	// happens — sends, arrivals, computations, dispatcher decisions, phase
	// transitions, faults and recovery actions. A nil sink costs nothing.
	Events EventSink
	// Faults, when non-nil, is the deterministic fault scenario replayed
	// during the run: workers crash (and optionally rejoin), links drop,
	// stragglers slow down, exactly as scheduled.
	Faults *FaultSchedule
	// Recovery selects how the engine reacts to lost work. The zero value
	// means no recovery: chunks lost to faults stay lost and the run
	// completes short (check Result.LostWork). DefaultRecovery() re-sends
	// lost chunks to live workers and kills stuck ones via timeouts.
	Recovery Recovery
}

// Simulate runs scheduler s once on platform p with a workload of total
// units and returns the simulated outcome.
func Simulate(p *Platform, s Scheduler, total float64, opts SimOptions) (Result, error) {
	known := opts.Error
	if opts.SchedulerError != nil {
		known = *opts.SchedulerError
	}
	pr := &Problem{Platform: p, Total: total, KnownError: known, MinUnit: opts.MinUnit}
	d, err := s.NewDispatcher(pr)
	if err != nil {
		return Result{}, err
	}
	var streams perferr.Pair
	comm, comp := streams.Split(rng.NewFrom(opts.Seed), opts.Model, opts.Error)
	return engine.Run(p, d, engine.Options{
		CommModel:     comm,
		CompModel:     comp,
		RecordTrace:   opts.RecordTrace,
		ParallelSends: opts.ParallelSends,
		Events:        opts.Events,
		Faults:        opts.Faults,
		Recovery:      opts.Recovery,
	})
}

// SequenceMatching, ImageFeature and RayTracing are ready-made workload
// profiles for the motivating applications of the paper's introduction.
var (
	SequenceMatching = workload.SequenceMatching
	ImageFeature     = workload.ImageFeature
	RayTracing       = workload.RayTracing
)
