package experiment

import (
	"context"
	"fmt"
	"math"

	"rumr/internal/dlt"
	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/stats"
)

// multiCellRows is the row layout of a multi-job cell block: the four
// per-algorithm aggregates of one (policy, arrival rate) cell, in the
// order ComputeMultiJobCellInto writes them.
const (
	multiRowResponse = iota
	multiRowSlowdown
	multiRowFairness
	multiRowMakespan
	multiCellRows
)

// MultiCellRows is the number of rows in a multi-job cell block —
// response, slowdown, fairness, makespan — the first dimension of the
// NewCellBlock a ComputeMultiJobCellInto caller must provide.
const MultiCellRows = multiCellRows

// MultiCellState is the reusable scaffolding for computing one multi-job
// sweep cell — all Reps × Algorithms runs of a single (policy, arrival
// rate) point — as a batch, the sibling of the single-job CellState. It
// owns the platform (refilled in place), the plan memo, one dispatcher
// prototype per (algorithm, job) that is Reset between repetitions via
// sched.Replayable instead of reconstructed, the per-job error streams
// (re-split in place per repetition and replayed to every algorithm),
// the arrival-time buffer regenerated in place per repetition, the job
// spec and JobResult buffers handed to engine.RunMulti, and the
// per-algorithm Welford accumulators. At steady state — the same cell
// computed repeatedly, as in BenchmarkMultiJobCell — a cell executes with
// zero heap allocations.
//
// A MultiCellState serves one goroutine at a time. Runner keeps a
// sync.Pool of them; external callers (the benchmark harness) create one
// with NewMultiCellState and pass it to ComputeMultiJobCellInto.
type MultiCellState struct {
	p *platform.Platform

	// Prototype identity: prototypes are rebuilt only when the runner,
	// configuration or the problem-shaping grid fields change. The policy
	// and arrival rate deliberately are not part of it — they do not
	// shape the scheduling problem, so one prepared state serves every
	// cell of a sweep.
	prepared bool
	owner    *Runner
	cfg      Config
	total    float64
	errMag   float64
	unknown  bool
	nJobs    int

	prob  sched.Problem
	names []string // "job0", "job1", ... precomputed once

	// protos slot ai*nJobs+j holds job j's prototype under algorithm ai;
	// failed[ai] marks an algorithm whose construction failed, which
	// short-circuits it for every cell instead of retrying per repetition.
	protos protoSet
	failed []bool

	jobs   []engine.Job
	jobRes []engine.JobResult

	accResp, accSlow, accFair, accMk []stats.Welford

	// src is the per-(rate, rep) master stream; each job's comm and comp
	// streams are split from it exactly as the unbatched path did, once
	// per repetition, and replayed to each algorithm.
	src     rng.Source
	streams []perferr.Pair
	seed    [4]uint64

	arr         []float64 // arrival times, regenerated in place
	inv         []float64 // inverse slowdowns for the Jain index
	resp, slows []float64 // per-job observations fed to Metrics

	// counters is the telemetry of the last ComputeMultiJobCellInto
	// call, exactly as CellState keeps it for the single-job path: the
	// plan counts when the call prepared the state, the engine counters
	// of its runs.
	counters CellCounters
}

// NewMultiCellState returns an empty MultiCellState; all storage is sized
// lazily on first use.
func NewMultiCellState() *MultiCellState {
	return &MultiCellState{p: &platform.Platform{}}
}

// preparedFor reports whether the current prototypes are valid for
// (r, g). BaseSeed and Reps are deliberately not part of the identity:
// they only enter through the per-repetition reseeding.
func (cs *MultiCellState) preparedFor(r *Runner, g MultiJobGrid) bool {
	return cs.prepared && cs.owner == r && cs.cfg == g.Config &&
		cs.total == g.Total && cs.errMag == g.Error &&
		cs.unknown == r.UnknownError && cs.nJobs == g.Jobs
}

// prepare refills the platform, resets the memo, builds one dispatcher
// prototype per (algorithm, job) and sizes each job's error streams.
// Construction is deterministic and consumes no randomness, so hoisting
// it out of the repetition loop cannot change results; a construction
// failure marks the algorithm failed for the whole sweep in one attempt
// instead of Reps identical ones.
func (cs *MultiCellState) prepare(r *Runner, g MultiJobGrid) {
	nAlg := len(r.Algorithms)
	nJ := g.Jobs
	cfg := g.Config
	cs.p.FillHomogeneous(cfg.N, 1, cfg.R*float64(cfg.N), cfg.CLat, cfg.NLat)
	cs.protos.reset(&r.plans, cs.p, nAlg*nJ)
	cs.prob = sched.Problem{Platform: cs.p, Total: g.Total, KnownError: r.knownError(g.Error), MinUnit: 1}
	cs.names = resize(cs.names, nJ)
	for j := range cs.names {
		cs.names[j] = fmt.Sprintf("job%d", j)
	}
	cs.failed = resize(cs.failed, nAlg)
	for ai, algo := range r.Algorithms {
		for j := 0; j < nJ; j++ {
			if cs.protos.build(ai*nJ+j, algo, &cs.prob) != nil {
				// The algorithm cannot handle the configuration at all;
				// the whole cell is NaN, like the unbatched path.
				cs.failed[ai] = true
				break
			}
		}
	}
	cs.counters.PlansBuilt, cs.counters.PlansShared = cs.protos.flushPlans(r.Metrics)
	cs.accResp = resize(cs.accResp, nAlg)
	cs.accSlow = resize(cs.accSlow, nAlg)
	cs.accFair = resize(cs.accFair, nAlg)
	cs.accMk = resize(cs.accMk, nAlg)
	cs.jobs = resize(cs.jobs, nJ)
	cs.jobRes = resize(cs.jobRes, nJ)
	cs.streams = resize(cs.streams, nJ)
	cs.arr = resize(cs.arr, nJ)
	cs.inv = resize(cs.inv, nJ)
	cs.resp = resize(cs.resp, nJ)
	cs.slows = resize(cs.slows, nJ)
	cs.owner = r
	cs.cfg = cfg
	cs.total = g.Total
	cs.errMag = g.Error
	cs.unknown = r.UnknownError
	cs.nJobs = nJ
	cs.prepared = true
}

// regenArrivals re-derives the arrival times of one (rate, rep) instance
// into cs.arr in place: Poisson arrivals by the same inverse-CDF sampling
// loop as arrivals.Poisson. The seed depends only on the grid seed, the
// rate value and the repetition — not the policy or algorithm — so every
// competitor faces the identical arrival history (common random
// numbers). It must stay bit-identical to the frozen reference,
// multiJobArrivals.
func (cs *MultiCellState) regenArrivals(g MultiJobGrid, rate float64, rep int) {
	if rate <= 0 {
		for i := range cs.arr {
			cs.arr[i] = 0 // batch arrival at t=0
		}
		return
	}
	cs.seed[0] = g.BaseSeed
	cs.seed[1] = 0x6a6f6273 // "jobs"
	cs.seed[2] = math.Float64bits(rate)
	cs.seed[3] = uint64(rep)
	cs.src.ReseedFrom(cs.seed[:]...)
	t := 0.0
	for i := range cs.arr {
		t += -math.Log(1-cs.src.Float64()) / rate
		cs.arr[i] = t
	}
}

// instanceSeed re-derives the error-stream seed of one (rate, rep)
// instance; like the arrivals it is policy- and algorithm-independent.
// It must stay bit-identical to the frozen reference, multiJobSeed.
func (cs *MultiCellState) instanceSeed(g MultiJobGrid, rate float64, rep int) uint64 {
	cs.seed[0] = g.BaseSeed
	cs.seed[1] = 0x657272 // "err"
	cs.seed[2] = math.Float64bits(rate)
	cs.seed[3] = uint64(rep)
	cs.src.ReseedFrom(cs.seed[:]...)
	return cs.src.Uint64()
}

// ComputeMultiJobCellInto computes one (policy, arrival rate) cell's
// aggregate block into dst, batching all Reps × Algorithms multi-job runs
// against cs's pooled platform, memo, dispatcher prototypes and RNG
// buffers. dst must have multiCellRows (response, slowdown, fairness,
// makespan) rows of len(r.Algorithms) columns — the shape NewCellBlock
// (multiCellRows, nAlg) allocates. It is the allocation-free core that
// both MultiJobContext and BenchmarkMultiJobCell drive; results are
// bit-identical to the unbatched per-repetition construction, which
// TestBatchedMultiCellMatchesReference pins.
func (r *Runner) ComputeMultiJobCellInto(ctx context.Context, g MultiJobGrid, pol engine.LinkPolicy, rate float64, cs *MultiCellState, dst [][]float64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(r.Algorithms) == 0 {
		return errNoAlgorithms
	}
	nAlg := len(r.Algorithms)
	if !cellShapeOK(dst, multiCellRows, nAlg) {
		return fmt.Errorf("experiment: destination block is not %d x %d", multiCellRows, nAlg)
	}
	cs.counters = CellCounters{}
	if !cs.preparedFor(r, g) {
		cs.prepare(r, g)
	}
	lb := dlt.LowerBound(cs.p, g.Total)
	if lb <= 0 {
		return fmt.Errorf("experiment: degenerate platform %v: zero lower bound", g.Config)
	}
	for ai := range cs.accResp {
		cs.accResp[ai] = stats.Welford{}
		cs.accSlow[ai] = stats.Welford{}
		cs.accFair[ai] = stats.Welford{}
		cs.accMk[ai] = stats.Welford{}
	}
	for rep := 0; rep < g.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cs.regenArrivals(g, rate, rep)
		seed := cs.instanceSeed(g, rate, rep)
		// Each algorithm sees identical streams per (rate, rep) — common
		// random numbers, split in the unbatched path's order (per job,
		// comm first, then comp) once, and replayed to every algorithm.
		cs.seed[0] = seed
		cs.src.ReseedFrom(cs.seed[:1]...)
		for j := 0; j < g.Jobs; j++ {
			comm, comp := cs.streams[j].Split(&cs.src, r.ErrorModel, g.Error)
			cs.jobs[j] = engine.Job{
				Name:      cs.names[j],
				Arrival:   cs.arr[j],
				Priority:  g.Jobs - 1 - j,
				Weight:    1,
				Total:     g.Total,
				CommModel: comm,
				CompModel: comp,
			}
		}
		for ai, algo := range r.Algorithms {
			if cs.failed[ai] {
				continue
			}
			for j := 0; j < g.Jobs; j++ {
				d, err := cs.protos.dispatcher(ai*g.Jobs+j, algo, &cs.prob)
				if err != nil {
					return fmt.Errorf("experiment: %s: %w", g.Config, err)
				}
				cs.jobs[j].Dispatcher = d
				cs.streams[j].Replay()
			}
			out, err := engine.RunMulti(cs.p, cs.jobs, engine.MultiOptions{
				Policy:     pol,
				Metrics:    r.Metrics,
				Counters:   &cs.counters.Engine,
				JobResults: cs.jobRes,
			})
			if err != nil {
				return fmt.Errorf("experiment: multi-job %s/%s rate %g rep %d: %w",
					pol.Name(), algo.Name(), rate, rep, err)
			}
			runResp, runSlow := 0.0, 0.0
			for j, jr := range out.Jobs {
				runResp += jr.Response
				s := jr.Response / lb
				runSlow += s
				if s > 0 {
					cs.inv[j] = 1 / s
				} else {
					cs.inv[j] = 0
				}
			}
			fair := metrics.JainIndex(cs.inv)
			cs.accResp[ai].Add(runResp / float64(g.Jobs))
			cs.accSlow[ai].Add(runSlow / float64(g.Jobs))
			cs.accFair[ai].Add(fair)
			cs.accMk[ai].Add(out.Makespan)
			if r.Metrics != nil {
				for j, jr := range out.Jobs {
					cs.resp[j] = jr.Response
					cs.slows[j] = jr.Response / lb
				}
				r.Metrics.AddMultiJob(cs.resp, cs.slows, fair)
			}
		}
	}
	for ai := range r.Algorithms {
		if cs.failed[ai] {
			dst[multiRowResponse][ai] = math.NaN()
			dst[multiRowSlowdown][ai] = math.NaN()
			dst[multiRowFairness][ai] = math.NaN()
			dst[multiRowMakespan][ai] = math.NaN()
			continue
		}
		// Sum()/Reps is plain left-to-right accumulation — bit-identical
		// to the += sums of the unbatched path.
		reps := float64(g.Reps)
		dst[multiRowResponse][ai] = cs.accResp[ai].Sum() / reps
		dst[multiRowSlowdown][ai] = cs.accSlow[ai].Sum() / reps
		dst[multiRowFairness][ai] = cs.accFair[ai].Sum() / reps
		dst[multiRowMakespan][ai] = cs.accMk[ai].Sum() / reps
	}
	if r.Metrics != nil {
		r.Metrics.AddEngineCounters(cs.counters.Engine)
	}
	return nil
}
