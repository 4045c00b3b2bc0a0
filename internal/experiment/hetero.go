package experiment

import (
	"context"
	"fmt"
	"math"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/stats"
)

// HeteroGrid describes a heterogeneity study: ensembles of random star
// platforms whose worker speeds and link rates are drawn within
// ±Spread/2 of their means (Spread 0 = homogeneous), swept over
// heterogeneity levels and error magnitudes. The paper defers
// heterogeneity to its UMR prior work [17, 13]; this harness provides the
// equivalent study for RUMR.
type HeteroGrid struct {
	// N is the worker count of every platform.
	N int
	// MeanS and MeanR set the platform scale: worker speeds centre on
	// MeanS, link rates on MeanR·N·MeanS (the paper's r).
	MeanS, MeanR float64
	// CLat and NLat are the (homogeneous) latencies.
	CLat, NLat float64
	// Spreads are the heterogeneity levels: a spread h draws S and B
	// uniformly within [mean·(1-h/2), mean·(1+h/2)].
	Spreads []float64
	// Errors are the prediction-error magnitudes.
	Errors []float64
	// Platforms is the ensemble size per (spread); Reps the repetitions
	// per (platform, error).
	Platforms, Reps int
	// Total is W_total.
	Total float64
	// BaseSeed seeds both platform generation and error streams.
	BaseSeed uint64
}

// DefaultHeteroGrid returns the ensemble used by the heterogeneity bench:
// 16 workers, r = 1.6, moderate latencies, spreads 0…1.2.
func DefaultHeteroGrid() HeteroGrid {
	return HeteroGrid{
		N: 16, MeanS: 1, MeanR: 1.6, CLat: 0.3, NLat: 0.3,
		Spreads:   []float64{0, 0.4, 0.8, 1.2},
		Errors:    []float64{0, 0.2, 0.4},
		Platforms: 20, Reps: 5, Total: 1000, BaseSeed: 4242,
	}
}

// HeteroResults holds mean normalised makespans per (spread, error,
// competitor): competitor makespan divided by the baseline's, averaged
// over the platform ensemble and repetitions.
type HeteroResults struct {
	Grid       HeteroGrid
	Algorithms []string // competitors (baseline excluded)
	// Ratio[s][e][a] is the mean ratio at Spreads[s], Errors[e].
	Ratio [][][]float64
}

// platformFor draws ensemble member pi at the given spread.
func (g HeteroGrid) platformFor(spread float64, pi int) *platform.Platform {
	src := rng.NewFrom(g.BaseSeed, math.Float64bits(spread), uint64(pi))
	meanB := g.MeanR * float64(g.N) * g.MeanS
	spec := platform.HeterogeneousSpec{
		N:       g.N,
		SMin:    g.MeanS * (1 - spread/2),
		SMax:    g.MeanS * (1 + spread/2),
		BMin:    meanB * (1 - spread/2),
		BMax:    meanB * (1 + spread/2),
		CLatMin: g.CLat, CLatMax: g.CLat,
		NLatMin: g.NLat, NLatMax: g.NLat,
	}
	if spread == 0 {
		return platform.Homogeneous(g.N, g.MeanS, meanB, g.CLat, g.NLat)
	}
	return platform.Heterogeneous(spec, src)
}

// Validate rejects degenerate grids before any simulation runs: an empty
// axis, no platforms or repetitions (which would report all-zero ratios),
// a spread outside [0, 2) (a worker speed or link rate <= 0), a negative
// or non-finite error magnitude, and a platform scale, latency or
// workload the engine cannot simulate.
func (g HeteroGrid) Validate() error {
	if err := g.config().Validate(); err != nil {
		return err
	}
	switch {
	case len(g.Spreads) == 0, len(g.Errors) == 0:
		return fmt.Errorf("%w: the hetero grid needs at least one spread and one error magnitude", errEmptyGrid)
	case !(g.MeanS > 0) || math.IsInf(g.MeanS, 1):
		return fmt.Errorf("experiment: hetero grid needs a finite MeanS > 0, got %g", g.MeanS)
	case g.Platforms <= 0:
		return fmt.Errorf("experiment: hetero grid needs Platforms > 0, got %d", g.Platforms)
	}
	for _, h := range g.Spreads {
		if !(h >= 0 && h < 2) {
			return fmt.Errorf("experiment: hetero spread %g outside [0, 2)", h)
		}
	}
	return validRuns(g.Reps, g.Total, g.Errors...)
}

// config is the grid's mean platform point: it validates the worker
// count, r and the latencies, and labels the study's cache entries.
func (g HeteroGrid) config() Config {
	return Config{N: g.N, R: g.MeanR, CLat: g.CLat, NLat: g.NLat}
}

// Hetero runs the heterogeneity study with a background context.
func (r *Runner) Hetero(g HeteroGrid) (*HeteroResults, error) {
	return r.HeteroContext(context.Background(), g)
}

// HeteroContext runs the heterogeneity study under ctx: Algorithms[0] is
// the baseline. Cell si*len(Errors)+ei is the (Spreads[si], Errors[ei])
// point, a 1 × (algorithms-1) block of mean ratios; cells fan out to the
// runner's worker pool (or Fleet) and are restored from its checkpoint
// and cache like the paper sweep's. A scheduler that rejects a platform
// fails the study.
func (r *Runner) HeteroContext(ctx context.Context, g HeteroGrid) (*HeteroResults, error) {
	return runAs[*HeteroResults](ctx, r, (*Runner).heteroStudy, g)
}

// heteroStudy describes the heterogeneity study of g: cells of positive
// mean ratios, keyed by the whole grid and the cell index, not the cell's
// values, because error streams are seeded with the error index.
func (r *Runner) heteroStudy(job Job, g HeteroGrid) (*study, error) {
	if len(job.Algorithms) < 2 {
		return nil, fmt.Errorf("experiment: hetero study needs a baseline and at least one competitor")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	job.Study = "hetero"
	names := job.Algorithms
	nE := len(g.Errors)
	return &study{
		job: job, grid: g, cells: len(g.Spreads) * nE, rows: 1, cols: len(names) - 1,
		key: func(i int) (string, Config) {
			return hashJSON(struct {
				Grid         HeteroGrid
				Algorithms   []string
				Model        ErrorModelKind
				UnknownError bool
				Cell         int
			}{g, names, job.Model, job.UnknownError, i}, 16), g.config()
		},
		compute: func(ctx context.Context, i int) ([][]float64, CellCounters, error) {
			return r.heteroCell(ctx, g, i/nE, i%nE)
		},
		results: func(blocks [][][]float64) any {
			res := &HeteroResults{Grid: g, Algorithms: names[1:], Ratio: make([][][]float64, len(g.Spreads))}
			for si := range g.Spreads {
				res.Ratio[si] = make([][]float64, nE)
				for ei := range g.Errors {
					res.Ratio[si][ei] = blocks[si*nE+ei][0]
				}
			}
			return res
		},
	}, nil
}

// heteroCell simulates every (platform, rep, algorithm) run at
// (Spreads[si], Errors[ei]) and returns the mean competitor/baseline
// makespan ratios. Each ensemble platform gets one prototype set; the
// error streams are seeded from (BaseSeed+1, spread, platform, error
// index, rep), split once and replayed to every algorithm (common random
// numbers).
func (r *Runner) heteroCell(ctx context.Context, g HeteroGrid, si, ei int) ([][]float64, CellCounters, error) {
	spread, errMag := g.Spreads[si], g.Errors[ei]
	nAlg := len(r.Algorithms)
	acc := make([]stats.Welford, nAlg-1)
	mks := make([]float64, nAlg)
	var (
		protos  protoSet
		master  rng.Source
		streams perferr.Pair
		ctrs    CellCounters
	)
	for pi := 0; pi < g.Platforms; pi++ {
		p := g.platformFor(spread, pi)
		pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: r.knownError(errMag), MinUnit: 1}
		protos.reset(&r.plans, p, nAlg)
		for ai, algo := range r.Algorithms {
			if err := protos.build(ai, algo, pr); err != nil {
				return nil, CellCounters{}, fmt.Errorf("experiment: %s on spread %g platform %d: %w",
					algo.Name(), spread, pi, err)
			}
		}
		built, shared := protos.flushPlans(r.Metrics)
		ctrs.PlansBuilt += built
		ctrs.PlansShared += shared
		for rep := 0; rep < g.Reps; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, CellCounters{}, err
			}
			master.ReseedFrom(g.BaseSeed+1, math.Float64bits(spread), uint64(pi), uint64(ei), uint64(rep))
			comm, comp := streams.Split(&master, r.ErrorModel, errMag)
			for ai, algo := range r.Algorithms {
				d, err := protos.dispatcher(ai, algo, pr)
				if err != nil {
					return nil, CellCounters{}, fmt.Errorf("experiment: spread %g platform %d: %w", spread, pi, err)
				}
				streams.Replay()
				out, err := engine.Run(p, d, engine.Options{
					CommModel: comm,
					CompModel: comp,
					Metrics:   r.Metrics,
					Counters:  &ctrs.Engine,
				})
				if err != nil {
					return nil, CellCounters{}, fmt.Errorf("experiment: %s on spread %g platform %d: %w",
						algo.Name(), spread, pi, err)
				}
				if math.Abs(out.DispatchedWork-g.Total) > 1e-6*g.Total {
					return nil, CellCounters{}, fmt.Errorf("experiment: %s dispatched %g of %g",
						algo.Name(), out.DispatchedWork, g.Total)
				}
				mks[ai] = out.Makespan
			}
			for ai := 1; ai < nAlg; ai++ {
				acc[ai-1].Add(mks[ai] / mks[0])
			}
		}
	}
	if r.Metrics != nil {
		r.Metrics.AddEngineCounters(ctrs.Engine)
	}
	block := NewCellBlock(1, nAlg-1)
	for ai := range acc {
		block[0][ai] = acc[ai].Mean()
	}
	return block, ctrs, nil
}
