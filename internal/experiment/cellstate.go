package experiment

import (
	"context"
	"fmt"
	"math"

	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/stats"
)

// CellState is the reusable scaffolding for computing one sweep cell —
// all Reps × Errors × Algorithms runs of a single configuration — as a
// batch. It owns the platform (refilled in place per configuration), the
// plan memo, one dispatcher prototype per (error, algorithm) that is
// Reset between repetitions instead of reconstructed, the error streams
// (re-split in place per repetition and replayed to every algorithm) and
// the per-algorithm makespan accumulators. At steady state — the same
// cell computed repeatedly, as in BenchmarkSweepCell — a cell executes
// with zero heap allocations.
//
// A CellState serves one goroutine at a time. Runner keeps a sync.Pool of
// them; external callers (the benchmark harness) create one with
// NewCellState and pass it to ComputeCellInto.
type CellState struct {
	p *platform.Platform

	// Prototype identity: prototypes are rebuilt only when the runner,
	// configuration or the problem-shaping grid fields change; repeating
	// the same cell (the benchmark steady state) skips preparation
	// entirely.
	prepared bool
	owner    *Runner
	cfg      Config
	total    float64
	unknown  bool
	errs     []float64

	// probs[ei] is the problem instance for error level ei; prototypes
	// hold pointers into it, so it is indexed, never reallocated, while
	// prepared.
	probs []sched.Problem
	// protos slot ei*nAlg+ai holds the (error, algorithm) prototype; a
	// failed construction short-circuits the algorithm for the whole
	// (configuration, error) block instead of retrying the construction
	// on every repetition.
	protos protoSet
	acc    []stats.Welford

	// src is the per-(config, error, rep) master stream; the engine's
	// comm and comp streams are split from it exactly as the unbatched
	// path did, once per repetition, and replayed to each algorithm.
	src     rng.Source
	seed    [7]uint64
	streams perferr.Pair

	// counters is the telemetry of the last ComputeCellInto call: zeroed
	// at its top, the plan counts set by prepare, the engine counters fed
	// by every run via Options.Counters (plain adds — the cell is
	// single-goroutine) and flushed once per cell into Runner.Metrics.
	counters CellCounters
}

// NewCellState returns an empty CellState; all storage is sized lazily on
// first use.
func NewCellState() *CellState {
	return &CellState{p: &platform.Platform{}}
}

// NewCellBlock allocates a rows × cols matrix backed by one contiguous
// float64 slab — the shape of a cell's [error][algorithm] mean block and
// of the aggregation tables derived from it.
func NewCellBlock(rows, cols int) [][]float64 {
	block := make([][]float64, rows)
	slab := make([]float64, rows*cols)
	for i := range block {
		block[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return block
}

// resize returns s with length n, reusing its storage when possible and
// zeroing every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// protoSet holds one dispatcher prototype per slot, built once through
// the plan memo, and hands out the dispatcher of each repetition: the
// prototype Reset when it is sched.Replayable, a fresh build otherwise.
// Every study batches its repetitions through one.
type protoSet struct {
	memo   *sched.Memo
	protos []engine.Dispatcher // nil where construction failed
	replay []sched.Replayable  // protos[i]'s Reset handle, if any
}

// reset empties the set to n slots over platform p, with the shared plan
// tier behind the memo. Plans memoized per cell for a previous platform
// fill are dropped.
func (ps *protoSet) reset(shared *sched.SharedPlans, p *platform.Platform, n int) {
	if ps.memo == nil {
		ps.memo = sched.NewMemo(p)
	} else {
		ps.memo.Reset(p)
	}
	ps.memo.Share(shared)
	ps.protos = resize(ps.protos, n)
	ps.replay = resize(ps.replay, n)
}

// newDispatcher constructs algo's dispatcher for pr, through the memo
// when the algorithm supports it.
func (ps *protoSet) newDispatcher(algo sched.Scheduler, pr *sched.Problem) (engine.Dispatcher, error) {
	if mz, ok := algo.(sched.Memoizer); ok {
		return mz.NewDispatcherMemo(pr, ps.memo)
	}
	return algo.NewDispatcher(pr)
}

// build constructs slot i's prototype and returns the construction
// error, leaving the slot nil on failure. Construction is deterministic
// and consumes no randomness, so hoisting it out of the repetition loop
// cannot change results.
func (ps *protoSet) build(i int, algo sched.Scheduler, pr *sched.Problem) error {
	d, err := ps.newDispatcher(algo, pr)
	if err != nil {
		return err
	}
	ps.protos[i] = d
	ps.replay[i], _ = d.(sched.Replayable)
	return nil
}

// flushPlans returns the plans built and shared since the last flush and
// adds them to met (when non-nil). Called once after the prototype
// builds, it never counts the per-repetition rebuilds of non-replayable
// dispatchers.
func (ps *protoSet) flushPlans(met *metrics.Collector) (built, shared int) {
	built, shared = ps.memo.TakeCounts()
	if met != nil {
		met.AddPlans(built, shared)
	}
	return built, shared
}

// built reports whether slot i's prototype was constructed.
func (ps *protoSet) built(i int) bool { return ps.protos[i] != nil }

// dispatcher returns built slot i's dispatcher for one repetition: the
// reset prototype when it is replayable, otherwise a fresh build, exactly
// like constructing per repetition. Construction is deterministic, so a
// rebuild cannot fail after build succeeded.
func (ps *protoSet) dispatcher(i int, algo sched.Scheduler, pr *sched.Problem) (engine.Dispatcher, error) {
	if rp := ps.replay[i]; rp != nil {
		rp.Reset()
		return ps.protos[i], nil
	}
	d, err := ps.newDispatcher(algo, pr)
	if err != nil {
		return nil, fmt.Errorf("%s: construction failed after succeeding: %w", algo.Name(), err)
	}
	return d, nil
}

// preparedFor reports whether the current prototypes are valid for
// (r, g, cfg). BaseSeed and Reps are deliberately not part of the
// identity: they only enter through the per-repetition reseeding, which
// reads the grid passed to ComputeCellInto directly.
func (cs *CellState) preparedFor(r *Runner, g Grid, cfg Config) bool {
	if !cs.prepared || cs.owner != r || cs.cfg != cfg ||
		cs.total != g.Total || cs.unknown != r.UnknownError ||
		len(cs.errs) != len(g.Errors) {
		return false
	}
	for i, e := range g.Errors {
		if cs.errs[i] != e {
			return false
		}
	}
	return true
}

// prepare refills the platform, resets the memo and builds one dispatcher
// prototype per (error, algorithm). Construction is deterministic and
// consumes no randomness, so hoisting it out of the repetition loop
// cannot change results; a construction failure marks the prototype nil,
// failing the algorithm for the whole (configuration, error) block in one
// attempt instead of Reps identical ones.
func (cs *CellState) prepare(r *Runner, g Grid, cfg Config) {
	nAlg := len(r.Algorithms)
	nErr := len(g.Errors)
	cs.p.FillHomogeneous(cfg.N, 1, cfg.R*float64(cfg.N), cfg.CLat, cfg.NLat)
	// One memo per configuration: plan construction (UMR's round
	// optimisation, MI's linear solve) is repetition- and mostly
	// error-independent, so memoizing schedulers solve once and share the
	// cached plan across the whole (error × repetition) block — and MI's
	// latency-free plans across every configuration of the runner.
	cs.protos.reset(&r.plans, cs.p, nErr*nAlg)
	cs.probs = resize(cs.probs, nErr)
	cs.acc = resize(cs.acc, nAlg)
	cs.errs = resize(cs.errs, nErr)
	copy(cs.errs, g.Errors)
	for ei, errMag := range g.Errors {
		cs.probs[ei] = sched.Problem{
			Platform:   cs.p,
			Total:      g.Total,
			KnownError: r.knownError(errMag),
			MinUnit:    1,
		}
	}
	for ei := range g.Errors {
		pr := &cs.probs[ei]
		for ai, algo := range r.Algorithms {
			cs.protos.build(ei*nAlg+ai, algo, pr) // a failure leaves the slot nil: NaN for the block
		}
	}
	cs.counters.PlansBuilt, cs.counters.PlansShared = cs.protos.flushPlans(r.Metrics)
	cs.owner = r
	cs.cfg = cfg
	cs.total = g.Total
	cs.unknown = r.UnknownError
	cs.prepared = true
}

// reseedCell re-derives the per-(config, error, rep) RNG stream into
// cs.src in place, from the configuration's values alone. Keep this in
// sync with the CellKey doc: any change invalidates every
// content-addressed cache and checkpoint silently, so bump cache
// directories when touching it. TestBatchedCellMatchesReference pins it
// against the frozen reference derivation, cellSeed.
func (cs *CellState) reseedCell(g Grid, cfg Config, errMag float64, rep int) {
	cs.seed[0] = g.BaseSeed
	cs.seed[1] = uint64(cfg.N)
	cs.seed[2] = math.Float64bits(cfg.R)
	cs.seed[3] = math.Float64bits(cfg.CLat)
	cs.seed[4] = math.Float64bits(cfg.NLat)
	cs.seed[5] = math.Float64bits(errMag)
	cs.seed[6] = uint64(rep)
	cs.src.ReseedFrom(cs.seed[:]...)
}

// ComputeCellInto computes configuration cfg's [error][algorithm] mean
// block into dst, batching all Reps × Errors × Algorithms runs against
// cs's pooled platform, memo and dispatcher prototypes. It is the
// allocation-free core that both ComputeConfig (and through it Sweep and
// the shard worker) and BenchmarkSweepCell drive; results
// are bit-identical to constructing everything per repetition, which
// TestBatchedCellMatchesReference pins. dst must have len(g.Errors) rows
// of len(r.Algorithms) columns.
func (r *Runner) ComputeCellInto(ctx context.Context, g Grid, cfg Config, cs *CellState, dst [][]float64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(r.Algorithms) == 0 {
		return errNoAlgorithms
	}
	nAlg := len(r.Algorithms)
	if !cellShapeOK(dst, len(g.Errors), nAlg) {
		return fmt.Errorf("experiment: destination block is not %d x %d", len(g.Errors), nAlg)
	}
	cs.counters = CellCounters{}
	if !cs.preparedFor(r, g, cfg) {
		cs.prepare(r, g, cfg)
	}
	for ei, errMag := range g.Errors {
		for ai := range cs.acc {
			cs.acc[ai] = stats.Welford{}
		}
		for rep := 0; rep < g.Reps; rep++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Each algorithm sees identical streams per (error, rep) —
			// common random numbers, split in the unbatched path's order
			// (comm first, then comp) once, and replayed to every
			// algorithm.
			cs.reseedCell(g, cfg, errMag, rep)
			commM, compM := cs.streams.Split(&cs.src, r.ErrorModel, errMag)
			for ai, algo := range r.Algorithms {
				idx := ei*nAlg + ai
				if !cs.protos.built(idx) {
					continue // construction failed once; whole block is NaN
				}
				d, err := cs.protos.dispatcher(idx, algo, &cs.probs[ei])
				if err != nil {
					return fmt.Errorf("experiment: %s: %w", cfg, err)
				}
				cs.streams.Replay()
				out, err := engine.Run(cs.p, d, engine.Options{
					CommModel: commM,
					CompModel: compM,
					Metrics:   r.Metrics,
					Counters:  &cs.counters.Engine,
				})
				if err != nil {
					return fmt.Errorf("experiment: %s on %s: %w", algo.Name(), cfg, err)
				}
				if math.Abs(out.DispatchedWork-g.Total) > 1e-6*g.Total {
					return fmt.Errorf("experiment: %s on %s dispatched %g of %g",
						algo.Name(), cfg, out.DispatchedWork, g.Total)
				}
				cs.acc[ai].Add(out.Makespan)
			}
		}
		for ai := range r.Algorithms {
			if !cs.protos.built(ei*nAlg + ai) {
				dst[ei][ai] = math.NaN()
			} else {
				// Sum()/Reps is plain left-to-right accumulation — bit-
				// identical to the sums-slice arithmetic of the unbatched
				// path, unlike the Welford streaming mean.
				dst[ei][ai] = cs.acc[ai].Sum() / float64(g.Reps)
			}
		}
	}
	if r.Metrics != nil {
		r.Metrics.AddEngineCounters(cs.counters.Engine)
	}
	return nil
}
