// Package engine simulates the execution of divisible workloads on the
// paper's star platform. It is the substrate standing in for SimGrid: it
// implements exactly the timing semantics of §3.1 —
//
//   - the master sends chunks one at a time; a transfer occupies the
//     master's port for nLat_i + chunk/B_i, perturbed by the error model;
//   - the pipeline tail tLat_i overlaps with subsequent transfers: the
//     worker holds the data tLat_i after the port frees;
//   - workers have a front end: they receive while computing;
//   - computing a chunk takes cLat_i + chunk/S_i, perturbed by the error
//     model, and chunks are computed in arrival order.
//
// Scheduling policy is supplied through the Dispatcher interface; the
// engine asks the dispatcher for the next chunk whenever the master's port
// is free and the system state has changed (start, a send completed, a
// chunk completed, a chunk arrived). This single mechanism supports both
// precalculated schedules (UMR, MI) and demand-driven ones (Factoring,
// FSC, RUMR's phase 2).
//
// One simulation core hosts N >= 1 loads on one DES timeline: RunMulti
// runs several jobs that share the platform, arbitrating the master's port
// under a LinkPolicy, and Run is the one-job case of the same core.
//
// Beyond the paper's model, the core injects faults (Options.Faults):
// worker crashes with rejoin, link outages and compute slowdowns, replayed
// deterministically from a fault.Schedule. Chunks on a crashed worker, or
// arriving over a dead link, are lost; with Options.Recovery enabled the
// core detects losses (including stuck chunks, via per-chunk completion
// timeouts with exponential backoff) and re-dispatches the lost work to
// live workers, so the full workload still completes as long as capacity
// survives. Every fault and recovery action is emitted on the event
// stream and recorded in the trace, where Trace.Validate independently
// checks that no unit of work is silently dropped or double-counted.
// Only Run configures faults so far; MultiOptions does not expose them.
//
// The hot path is allocation-free in steady state: run state (the DES
// kernel, worker states, job records, chunk structs) is pooled and reset
// between runs, and every DES entry is a typed payload — kind, job, fault
// or chunk index, worker and attempt packed into one uint64 — that the
// core's run loop decodes and acts on directly, so no callback or closure
// exists per chunk-hop. Cancelling is the core's own business: a disarmed
// compute end or completion timer stays queued until it reaches the root,
// where its stale generation drops it. The master port's send ends
// never enter the DES heap: at most ParallelSends are pending, so the
// core keeps them in a small slice and its run loop merges them with the
// DES root by (time, seq), each send end holding the seq it reserved
// from the kernel when it was sent. BenchmarkEngineRun and
// BenchmarkMultiJobRun measure it, and their zero-alloc twins in
// alloc_test.go require 0 allocs per run. Pooling is invisible to
// results: same-seed runs stay byte-identical (see
// TestGoldenTracesByteIdentical and TestEngineDigest).
package engine

import (
	"fmt"
	"math"
	"math/bits"

	"rumr/internal/fault"
	"rumr/internal/metrics"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/trace"
)

// Chunk is a dispatch instruction produced by a Dispatcher.
type Chunk struct {
	// Worker is the destination worker index.
	Worker int
	// Size is the chunk size in workload units; must be positive.
	Size float64
	// Round tags the chunk with a scheduler-defined round/batch index.
	Round int
	// Phase tags the chunk with a scheduler-defined phase (RUMR: 1 or 2).
	Phase int
}

// WorkerState is the dispatcher-visible state of one worker: occupancy
// and health, shared by every job of a run. It carries no completion
// accounting; a dispatcher learns of its completions through
// Observer.OnComplete, and JobResult.CompletedWork and
// Result.CompletedWork total them. The zero value is a healthy, idle
// worker.
type WorkerState struct {
	// Computing reports whether the worker is currently executing a chunk.
	Computing bool
	// Down reports that the worker has crashed: it computes nothing,
	// receives nothing, and never appears idle. A rejoin clears it.
	Down bool
	// LinkDown reports that the master->worker link is out: data arriving
	// now is lost and dispatchers should not target the worker, but
	// already-queued chunks keep computing.
	LinkDown bool
	// Queued is the number of chunks that have arrived and await
	// computation.
	Queued int
	// InFlight is the number of chunks sent (or sending) but not arrived.
	InFlight int
}

// Idle reports whether the worker has nothing to do and nothing on the
// way — the paper's "finished prematurely" condition for out-of-order
// dispatch. Crashed and disconnected workers are never idle, which is how
// faults surface to fault-oblivious dispatchers: dead workers are never
// returned by View.FirstIdle or reported by View.WorkerIdle. The pointer
// receiver reads the fields in place: a value copy of the struct stalls
// on the one-field store an engine mutation site has just made.
func (w *WorkerState) Idle() bool {
	return !w.Down && !w.LinkDown && !w.Computing && w.Queued == 0 && w.InFlight == 0
}

// View is the read-only snapshot a Dispatcher sees when deciding what to
// send next.
type View struct {
	// Time is the current virtual time.
	Time float64
	// Workers holds one state per worker. It is the engine's own state,
	// not a copy: dispatchers must not mutate it.
	Workers []WorkerState
	// IdleMask is an engine-maintained bitset with bit i set exactly when
	// Workers[i].Idle() — kept current at every state change, so
	// dispatchers that only need "the first idle worker" skip the
	// per-worker scan. The engine always sets it; it is nil only on
	// hand-built Views, for which FirstIdle/WorkerIdle fall back to
	// scanning Workers.
	IdleMask []uint64
}

// FirstIdle returns the index of the lowest-numbered idle worker, or -1
// when every worker is busy, via the IdleMask when present.
func (v *View) FirstIdle() int {
	if v.IdleMask != nil {
		for wi, word := range v.IdleMask {
			if word != 0 {
				return wi<<6 + bits.TrailingZeros64(word)
			}
		}
		return -1
	}
	for i := range v.Workers {
		if v.Workers[i].Idle() {
			return i
		}
	}
	return -1
}

// WorkerIdle reports Workers[i].Idle(), via the IdleMask when present.
func (v *View) WorkerIdle(i int) bool {
	if v.IdleMask != nil {
		return v.IdleMask[i>>6]&(1<<(uint(i)&63)) != 0
	}
	return v.Workers[i].Idle()
}

// Dispatcher decides the next chunk to send. Implementations see the
// engine state through the View; they are invoked only while the master's
// port is free.
type Dispatcher interface {
	// Next returns the next chunk and true, or false when nothing should
	// be dispatched right now (either the workload is fully dispatched, or
	// the policy waits for a completion). The engine re-invokes Next after
	// every state change.
	Next(v *View) (Chunk, bool)
}

// Observer is implemented by dispatchers that react to chunk completions
// (demand-driven policies, online error estimators).
type Observer interface {
	// OnComplete is called when a worker finishes computing a chunk;
	// predicted and effective are the chunk's predicted and actual
	// computation durations, for online error estimation.
	OnComplete(workerIdx int, c Chunk, at, predicted, effective float64)
}

// FaultAware is implemented by dispatchers that react to worker
// availability changes — e.g. a scheduler that re-plans its remaining
// rounds over the surviving workers after a crash. The callbacks run
// synchronously at the fault's virtual time, before the next Next call.
type FaultAware interface {
	// OnWorkerDown is called when a worker crashes.
	OnWorkerDown(worker int, at float64, v *View)
	// OnWorkerUp is called when a crashed worker rejoins.
	OnWorkerUp(worker int, at float64, v *View)
}

// Options tune a simulation run.
//
// Reuse contract: an Options value is read during Run and never retained,
// so batch callers may reuse one value — and the objects its fields point
// to — across any number of runs. The perturbation models are the only
// stateful members: CommModel/CompModel advance their RNG source on every
// draw, so callers that need reproducible repetitions must reseed the
// models' sources between runs (the experiment package's batched cell
// path does exactly that). Metrics is safe to share across concurrent
// runs; a Faults schedule is replayed read-only.
//
// The pooled core grows its buffers as chunks are dispatched. A fixed cap
// of 10 million chunks, and as many fault-recovery re-dispatches, aborts a
// runaway dispatcher with an error.
type Options struct {
	// CommModel perturbs transfer durations; nil means perfect prediction.
	CommModel perferr.Model
	// CompModel perturbs computation durations; nil means perfect
	// prediction.
	CompModel perferr.Model
	// RecordTrace makes Run return a full per-chunk trace.
	RecordTrace bool
	// ParallelSends is the number of transfers the master may run
	// concurrently. The paper's model (and the default, 0 or 1) is a
	// fully serialised port; higher values implement the "simultaneous
	// transfers" extension its future work sketches for WAN platforms,
	// where per-link bandwidth — not the master's port — is the
	// bottleneck, so each concurrent transfer still proceeds at its
	// link's full B_i.
	ParallelSends int
	// Metrics, when non-nil, receives one AddRun per successful Run with
	// the dispatched chunk count, the DES events processed and the
	// makespan. The sweep runner shares one collector across its worker
	// pool.
	Metrics *metrics.Collector
	// Counters, when non-nil, accumulates the engine's hot-path telemetry
	// into the pointed-to struct with plain (non-atomic) integer adds —
	// zero overhead when nil, zero allocations when set. Unlike Metrics it
	// must not be shared across concurrent runs; batch callers keep one
	// per cell and fold the batches with metrics.AddEngineCounters.
	Counters *Counters
	// Events, when non-nil, receives one obs.Event per state change —
	// send start/end, arrival, compute start/end, faults, losses,
	// re-dispatches and the run's end — and is attached to the dispatcher
	// (if it implements obs.Emitter) so scheduling decisions are on the
	// same stream. The nil path costs one branch per potential event; see
	// BenchmarkEngine*.
	Events obs.Sink
	// Faults, when non-nil, is the deterministic fault scenario replayed
	// during the run.
	Faults *fault.Schedule
	// Recovery selects the loss-detection and re-dispatch policy. The
	// zero value disables recovery: lost work stays lost and the run
	// completes short (check Result.LostWork).
	Recovery fault.Recovery
}

// Result summarises one simulated run.
type Result struct {
	// Makespan is the completion time of the last chunk.
	Makespan float64
	// Chunks is the number of chunks dispatched (first attempts only;
	// fault-recovery re-sends are counted in Redispatches).
	Chunks int
	// DispatchedWork is the total workload handed out by the dispatcher;
	// callers should check it equals W_total (the engine cannot know the
	// intended total). Re-dispatched work is not double-counted here.
	DispatchedWork float64
	// CompletedWork is the workload actually computed to completion. It
	// equals DispatchedWork - LostWork.
	CompletedWork float64
	// LostChunks counts loss events (a chunk lost twice counts twice);
	// LostWork is the workload units permanently lost (never recovered).
	LostChunks int
	LostWork   float64
	// Redispatches counts fault-recovery re-sends; RedispatchedWork is
	// their total size (the same unit may be re-sent more than once).
	Redispatches     int
	RedispatchedWork float64
	// Trace is non-nil when Options.RecordTrace was set.
	Trace *trace.Trace
	// Events is the number of simulator events processed.
	Events uint64
}

// Run simulates dispatching on p according to d, as the core's lone job
// arriving at time 0. It returns an error for invalid platforms or fault
// schedules and for misbehaving dispatchers (out-of-range worker,
// non-positive size, runaway chunk count).
func Run(p *platform.Platform, d Dispatcher, opts Options) (Result, error) {
	if err := validate(p, opts.Faults, nil); err != nil {
		return Result{}, err
	}
	mr := multiRunPool.Get().(*multiRun)
	lone := [1]Job{{Dispatcher: d, CommModel: opts.CommModel, CompModel: opts.CompModel}}
	mopts := MultiOptions{
		ParallelSends: opts.ParallelSends,
		RecordTrace:   opts.RecordTrace,
		Metrics:       opts.Metrics,
		Counters:      opts.Counters,
	}
	if opts.Events != nil {
		mr.loneSink.Sink = opts.Events
		mopts.Events = &mr.loneSink
	}
	var res Result
	err := mr.exec(p, lone[:], mopts, opts.Faults, opts.Recovery)
	if err == nil {
		jr := &mr.jobs[0].res
		res = Result{
			Makespan:         mr.makespan,
			Chunks:           mr.chunks,
			DispatchedWork:   jr.DispatchedWork,
			CompletedWork:    jr.CompletedWork,
			LostChunks:       mr.lostChunks,
			LostWork:         mr.lostWork,
			Redispatches:     mr.redispatches,
			RedispatchedWork: mr.redispatchedWork,
			Trace:            mr.tr,
			Events:           mr.sim.Processed(),
		}
	}
	mr.release()
	multiRunPool.Put(mr)
	return res, err
}

// loneSink adapts Run's plain obs.Sink to the core's JobSink: a lone
// job's events need no tag.
type loneSink struct{ obs.Sink }

func (s *loneSink) EmitJob(_ int, e obs.Event) { s.Emit(e) }

// validate checks the inputs Run and RunMulti share: the worker, job and
// fault counts the event payload can address (see pack; checked first, so
// a huge platform is rejected without walking it), the platform, the fault
// schedule and each job's spec.
func validate(p *platform.Platform, faults *fault.Schedule, jobs []Job) error {
	if n := len(p.Workers); n >= 1<<workerBits {
		return fmt.Errorf("engine: %d workers exceed the supported maximum %d", n, 1<<workerBits-1)
	}
	if n := len(jobs); n > maxIndex+1 {
		return fmt.Errorf("engine: %d jobs exceed the supported maximum %d", n, maxIndex+1)
	}
	if !faults.Empty() && len(faults.Events) > maxIndex+1 {
		return fmt.Errorf("engine: %d fault events exceed the supported maximum %d", len(faults.Events), maxIndex+1)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := faults.Validate(p.N()); err != nil {
		return err
	}
	for j, job := range jobs {
		if job.Dispatcher == nil {
			return fmt.Errorf("engine: job %d has no dispatcher", j)
		}
		if job.Total <= 0 || math.IsNaN(job.Total) || math.IsInf(job.Total, 0) {
			return fmt.Errorf("engine: job %d has invalid workload %g", j, job.Total)
		}
		if job.Arrival < 0 || math.IsNaN(job.Arrival) || math.IsInf(job.Arrival, 0) {
			return fmt.Errorf("engine: job %d has invalid arrival time %g", j, job.Arrival)
		}
		if job.Weight < 0 || math.IsNaN(job.Weight) {
			return fmt.Errorf("engine: job %d has invalid weight %g", j, job.Weight)
		}
	}
	return nil
}
