package experiment

import (
	"context"
	"fmt"
	"math"

	"rumr/internal/engine"
	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

// ResilienceGrid describes a resilience sweep: one platform configuration
// and a crash-rate axis. For every (crash rate, repetition) a random fault
// scenario is drawn — deterministically from the base seed — and every
// algorithm runs against the same scenario and the same error streams
// (common random numbers), with the engine's re-dispatch recovery enabled.
// The headline output is makespan degradation versus crash rate per
// scheduler: how gracefully each policy absorbs machine loss.
type ResilienceGrid struct {
	// Config is the platform point to stress.
	Config Config
	// CrashRates is the axis: each worker's probability of crashing once
	// within the horizon (0 = the fault-free baseline regime).
	CrashRates []float64
	// RejoinProb is the probability a crashed worker rejoins later.
	RejoinProb float64
	// Error is the §4.1 prediction-error magnitude applied on top of the
	// faults (0 = perfect predictions).
	Error float64
	// Reps is the number of scenario draws per crash rate.
	Reps int
	// Total is W_total.
	Total float64
	// BaseSeed makes the whole sweep reproducible.
	BaseSeed uint64
	// Horizon is the window faults are drawn in; 0 derives it as 1.5x the
	// slowest algorithm's fault-free makespan.
	Horizon float64
	// Recovery overrides the engine recovery policy; the zero value
	// selects re-dispatch with 4x completion timeouts.
	Recovery fault.Recovery
}

func (g ResilienceGrid) recovery() fault.Recovery {
	if g.Recovery == (fault.Recovery{}) {
		return fault.Recovery{Enabled: true, TimeoutFactor: 4}
	}
	return g.Recovery
}

// Validate rejects degenerate grids before any simulation runs.
func (g ResilienceGrid) Validate() error {
	if err := g.Config.Validate(); err != nil {
		return err
	}
	if len(g.CrashRates) == 0 {
		return fmt.Errorf("%w: no crash rates", errEmptyGrid)
	}
	for _, p := range append([]float64{g.RejoinProb}, g.CrashRates...) {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("experiment: resilience probability %g outside [0,1]", p)
		}
	}
	if g.Horizon < 0 || math.IsNaN(g.Horizon) {
		return fmt.Errorf("experiment: resilience grid needs Horizon >= 0, got %g", g.Horizon)
	}
	return validRuns(g.Reps, g.Total, g.Error)
}

// DefaultResilienceGrid is the resilience counterpart of ReducedGrid: the
// Fig. 5 platform (the regime where scheduling policy matters most), a
// crash-rate axis from fault-free to "every other worker dies", moderate
// rejoin probability and the paper's mid-range prediction error.
func DefaultResilienceGrid() ResilienceGrid {
	return ResilienceGrid{
		Config:     Config{N: 20, R: 1.8, CLat: 0.3, NLat: 0.9},
		CrashRates: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		RejoinProb: 0.3,
		Error:      0.2,
		Reps:       10,
		Total:      1000,
		BaseSeed:   2003,
	}
}

// ResilienceResults holds the aggregates of a resilience sweep, indexed
// [crash rate][algorithm].
type ResilienceResults struct {
	Grid       ResilienceGrid
	Algorithms []string
	// Baseline[a] is the fault-free mean makespan (same error model, no
	// faults) used to normalise degradation.
	Baseline []float64
	// Mean[c][a] is the mean makespan under faults; NaN marks an algorithm
	// that failed on the configuration.
	Mean [][]float64
	// Degradation[c][a] is Mean[c][a] / Baseline[a].
	Degradation [][]float64
	// Completion[c][a] is the mean fraction of the workload computed to
	// completion — 1.0 whenever recovery kept every unit alive.
	Completion [][]float64
	// Redispatches[c][a] is the mean number of fault-recovery re-sends.
	Redispatches [][]float64
}

// Resilience runs the resilience sweep with a background context.
func (r *Runner) Resilience(g ResilienceGrid) (*ResilienceResults, error) {
	return r.ResilienceContext(context.Background(), g)
}

// Rows of a resilience cell block. Cell 0 is the fault-free baseline,
// cell 1+ri crash rate ri; the baseline's completion and re-send rows
// are recorded but not reported.
const (
	resRowMean = iota
	resRowCompletion
	resRowRedispatches
	resCellRows
)

// ResilienceContext runs the resilience sweep under ctx, fanning its
// cells out to the runner's worker pool (or Fleet) in two waves: the
// fault-free baseline first — it normalises degradation and sizes the
// default horizon — then every crash rate. Cells are restored from the
// runner's checkpoint and cache like the paper sweep's; a crash-rate
// cell's cache key includes the derived horizon. The shared Metrics
// collector (if any) sees every simulation.
func (r *Runner) ResilienceContext(ctx context.Context, g ResilienceGrid) (*ResilienceResults, error) {
	return runAs[*ResilienceResults](ctx, r, (*Runner).resilienceStudy, g)
}

// resilienceStudy describes the resilience sweep of g: the baseline wave
// (cell 0), then the crash-rate wave, whose horizon the job carries once
// the baseline has set it. Mean makespans are positive; completed
// fractions and re-send counts may be zero.
func (r *Runner) resilienceStudy(job Job, g ResilienceGrid) (*study, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	job.Study = "resilience"
	names := job.Algorithms
	k := len(g.CrashRates)
	s := &study{job: job, grid: g, cells: 1 + k, rows: resCellRows, cols: len(names), first: 1,
		zeroRows: []int{resRowCompletion, resRowRedispatches}}
	s.advance = func(blocks [][][]float64) error {
		h, err := g.horizon(blocks[0][resRowMean])
		s.job.Horizon = h
		return err
	}
	s.key = func(i int) (string, Config) {
		return hashJSON(struct {
			Grid         ResilienceGrid
			Algorithms   []string
			Model        ErrorModelKind
			UnknownError bool
			Cell         int
			Horizon      float64
		}{g, names, job.Model, job.UnknownError, i, s.job.Horizon}, 16), g.Config
	}
	s.compute = func(ctx context.Context, i int) ([][]float64, CellCounters, error) {
		return r.resilienceCell(ctx, g, i, s.job.Horizon)
	}
	s.results = func(blocks [][][]float64) any {
		baseline := blocks[0][resRowMean]
		res := &ResilienceResults{
			Grid:         g,
			Algorithms:   names,
			Baseline:     baseline,
			Mean:         make([][]float64, k),
			Degradation:  make([][]float64, k),
			Completion:   make([][]float64, k),
			Redispatches: make([][]float64, k),
		}
		for ri := range g.CrashRates {
			b := blocks[1+ri]
			res.Mean[ri] = b[resRowMean]
			res.Completion[ri] = b[resRowCompletion]
			res.Redispatches[ri] = b[resRowRedispatches]
			res.Degradation[ri] = make([]float64, len(names))
			for ai, m := range b[resRowMean] {
				res.Degradation[ri][ai] = m / baseline[ai]
			}
		}
		return res
	}
	return s, nil
}

// horizon returns the window the crash-rate cells draw faults in: the
// grid's Horizon, or 1.5x the slowest algorithm's fault-free mean
// makespan.
func (g ResilienceGrid) horizon(baseline []float64) (float64, error) {
	if g.Horizon > 0 {
		return g.Horizon, nil
	}
	horizon := 0.0
	for _, b := range baseline {
		if !math.IsNaN(b) && 1.5*b > horizon {
			horizon = 1.5 * b
		}
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("experiment: no algorithm produced a baseline to derive a horizon from")
	}
	return horizon, nil
}

// resilienceCell simulates every (rep, algorithm) run of cell i: the
// fault-free baseline (i = 0, no faults, no recovery) or crash rate i-1
// under the given fault horizon. Scenarios are derived from (BaseSeed,
// rate index, rep) and the error streams from (BaseSeed, rep) alone —
// split once per repetition and replayed to every algorithm: common
// random numbers across algorithms, crash rates and the baseline — so
// degradation isolates the fault effect and results are independent of
// pool scheduling.
func (r *Runner) resilienceCell(ctx context.Context, g ResilienceGrid, i int, horizon float64) ([][]float64, CellCounters, error) {
	p := g.Config.Platform()
	pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: r.knownError(g.Error), MinUnit: 1}
	var protos protoSet
	protos.reset(&r.plans, p, len(r.Algorithms))
	for ai, algo := range r.Algorithms {
		protos.build(ai, algo, pr) // a failure leaves the slot nil: NaN for the cell
	}
	var ctrs CellCounters
	ctrs.PlansBuilt, ctrs.PlansShared = protos.flushPlans(r.Metrics)
	label := "baseline"
	var (
		master  rng.Source
		streams perferr.Pair
	)
	opts := engine.Options{Metrics: r.Metrics, Counters: &ctrs.Engine}
	var scenario fault.Scenario
	if i > 0 {
		label = fmt.Sprintf("crash rate %g", g.CrashRates[i-1])
		opts.Recovery = g.recovery()
		scenario = fault.Scenario{
			Horizon:    horizon,
			CrashProb:  g.CrashRates[i-1],
			RejoinProb: g.RejoinProb,
			// Rejoins spread over the second half of the horizon.
			RejoinDelayMin: horizon * 0.1,
			RejoinDelayMax: horizon * 0.5,
		}
	}
	block := NewCellBlock(resCellRows, len(r.Algorithms))
	for rep := 0; rep < g.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, CellCounters{}, err
		}
		if i > 0 {
			master.ReseedFrom(g.BaseSeed, uint64(i-1), uint64(rep), 0xFA)
			opts.Faults = scenario.Generate(p.N(), &master)
		}
		master.ReseedFrom(g.BaseSeed, uint64(rep))
		opts.CommModel, opts.CompModel = streams.Split(&master, r.ErrorModel, g.Error)
		for ai, algo := range r.Algorithms {
			if !protos.built(ai) {
				continue
			}
			d, err := protos.dispatcher(ai, algo, pr)
			if err != nil {
				return nil, CellCounters{}, fmt.Errorf("experiment: %s: %w", label, err)
			}
			streams.Replay()
			out, err := engine.Run(p, d, opts)
			if err != nil {
				return nil, CellCounters{}, fmt.Errorf("experiment: %s at %s: %w", algo.Name(), label, err)
			}
			block[resRowMean][ai] += out.Makespan
			block[resRowCompletion][ai] += out.CompletedWork / g.Total
			block[resRowRedispatches][ai] += float64(out.Redispatches)
		}
	}
	if r.Metrics != nil {
		r.Metrics.AddEngineCounters(ctrs.Engine)
	}
	for ai := range r.Algorithms {
		for _, row := range block {
			if !protos.built(ai) {
				row[ai] = math.NaN()
			} else {
				row[ai] /= float64(g.Reps)
			}
		}
	}
	return block, ctrs, nil
}
