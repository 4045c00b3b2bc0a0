package experiment

// Multi-job sweep: how do the schedulers behave when several divisible
// loads share one star platform? For every (link policy, arrival rate)
// cell the sweep runs Reps multi-job instances — job arrival times drawn
// once per (rate, rep) and reused by every algorithm and policy (common
// random numbers, like the single-job sweeps) — where all jobs run the
// same scheduler and contend for the serialised master link. The headline
// outputs are mean response time, mean slowdown against the isolated
// lower bound, and the mean Jain fairness index: robustness-oriented
// schedulers should degrade other jobs less than aggressive ones.

import (
	"context"
	"fmt"
	"math"

	"rumr/internal/engine"
)

// MultiJobGrid describes a multi-job sweep: one platform configuration,
// a link-policy axis and a Poisson arrival-intensity axis.
type MultiJobGrid struct {
	// Config is the platform point.
	Config Config
	// Jobs is the number of jobs per run (all running the same algorithm,
	// with per-job error streams). Under the priority policy job j gets
	// priority class Jobs-1-j — the LATEST-arriving job is the most
	// urgent, so strict priority visibly overtakes FCFS instead of
	// coinciding with it (arrival draws are sorted ascending); weights are
	// all 1, so the weighted policy degenerates to fair round-robin
	// sharing of the link.
	Jobs int
	// ArrivalRates is the open-arrivals axis: Poisson rates in jobs per
	// simulated second. Rate 0 means batch arrival (every job at t=0) —
	// the pure-contention regime.
	ArrivalRates []float64
	// Policies is the link-policy axis by name ("fcfs", "priority",
	// "weighted"); empty selects all built-in policies.
	Policies []string
	// Error is the §4.1 prediction-error magnitude (0 = perfect).
	Error float64
	// Reps is the number of arrival draws per (policy, rate) cell.
	Reps int
	// Total is each job's workload in units.
	Total float64
	// BaseSeed makes the whole sweep reproducible.
	BaseSeed uint64
}

// DefaultMultiJobGrid is the multi-job counterpart of ReducedGrid: the
// Fig. 5 platform, four jobs, arrival intensities from batch to sparse,
// every link policy, the paper's mid-range error.
func DefaultMultiJobGrid() MultiJobGrid {
	return MultiJobGrid{
		Config:       Config{N: 20, R: 1.8, CLat: 0.3, NLat: 0.9},
		Jobs:         4,
		ArrivalRates: []float64{0, 0.01, 0.02, 0.05},
		Error:        0.2,
		Reps:         10,
		Total:        500,
		BaseSeed:     2003,
	}
}

// Validate rejects degenerate grids before any simulation runs.
func (g MultiJobGrid) Validate() error {
	if err := g.Config.Validate(); err != nil {
		return err
	}
	if g.Jobs < 1 {
		return fmt.Errorf("experiment: multi-job grid needs at least one job, got %d", g.Jobs)
	}
	if len(g.ArrivalRates) == 0 {
		return fmt.Errorf("experiment: multi-job grid has no arrival rates")
	}
	for _, r := range g.ArrivalRates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("experiment: invalid arrival rate %g", r)
		}
	}
	if err := validRuns(g.Reps, g.Total, g.Error); err != nil {
		return err
	}
	for _, name := range g.Policies {
		if engine.LinkPolicyByName(name) == nil {
			return fmt.Errorf("experiment: unknown link policy %q", name)
		}
	}
	return nil
}

func (g MultiJobGrid) policies() []engine.LinkPolicy {
	if len(g.Policies) == 0 {
		return engine.LinkPolicies()
	}
	out := make([]engine.LinkPolicy, len(g.Policies))
	for i, name := range g.Policies {
		out[i] = engine.LinkPolicyByName(name)
	}
	return out
}

// MultiJobResults holds the aggregates of a multi-job sweep, indexed
// [policy][arrival rate][algorithm].
type MultiJobResults struct {
	Grid       MultiJobGrid
	Algorithms []string
	Policies   []string
	// MeanResponse[p][r][a] is the mean per-job response time (finish −
	// arrival) across jobs and repetitions; NaN marks an algorithm that
	// failed on the configuration.
	MeanResponse [][][]float64
	// MeanSlowdown[p][r][a] is the mean per-job slowdown: response over
	// the job's isolated-platform lower bound (dlt.LowerBound).
	MeanSlowdown [][][]float64
	// MeanFairness[p][r][a] is the mean per-run Jain index over the jobs'
	// inverse slowdowns (1 = contention hurt every job equally).
	MeanFairness [][][]float64
	// MeanMakespan[p][r][a] is the mean overall makespan of the runs.
	MeanMakespan [][][]float64
}

// MultiJob runs the multi-job sweep with a background context.
func (r *Runner) MultiJob(g MultiJobGrid) (*MultiJobResults, error) {
	return r.MultiJobContext(context.Background(), g)
}

// MultiJobContext runs the multi-job sweep under ctx, fanning
// (policy, arrival rate) cells out to the runner's worker pool (or
// Fleet). Cell pi*len(ArrivalRates)+ri is policy pi at rate ri; cells are
// restored from the runner's checkpoint and cache like the paper sweep's.
// The shared Metrics collector (if any) sees every run's per-job
// responses, slowdowns and fairness.
func (r *Runner) MultiJobContext(ctx context.Context, g MultiJobGrid) (*MultiJobResults, error) {
	return runAs[*MultiJobResults](ctx, r, (*Runner).multiJobStudy, g)
}

// multiJobStudy describes the multi-job sweep of g: blocks whose fairness
// row may hold zeros and whose other rows are positive.
func (r *Runner) multiJobStudy(job Job, g MultiJobGrid) (*study, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	job.Study = "multijob"
	pols := g.policies()
	names := job.Algorithms
	nR := len(g.ArrivalRates)
	return &study{
		job: job, grid: g, cells: len(pols) * nR, rows: multiCellRows, cols: len(names),
		key: func(i int) (string, Config) {
			return MultiCellKey(g, names, job.Model, job.UnknownError, pols[i/nR].Name(), g.ArrivalRates[i%nR]), g.Config
		},
		compute: func(ctx context.Context, i int) ([][]float64, CellCounters, error) {
			cs, _ := r.mcells.Get().(*MultiCellState)
			if cs == nil {
				cs = NewMultiCellState()
			}
			defer r.mcells.Put(cs)
			cell := NewCellBlock(multiCellRows, len(names))
			err := r.ComputeMultiJobCellInto(ctx, g, pols[i/nR], g.ArrivalRates[i%nR], cs, cell)
			return cell, cs.counters, err
		},
		zeroRows: []int{multiRowFairness},
		results: func(blocks [][][]float64) any {
			// One [policy][rate][algorithm] table per block row, all
			// sliced from two arrays: a one-cell study must stay within
			// TestMultiJobContextSingleCellAllocs's bound.
			nP := len(pols)
			tables := make([][][]float64, multiCellRows*nP)
			rows := make([][]float64, multiCellRows*nP*nR)
			table := func(row int) [][][]float64 { return tables[row*nP : (row+1)*nP] }
			res := &MultiJobResults{
				Grid:         g,
				Algorithms:   names,
				Policies:     make([]string, nP),
				MeanResponse: table(multiRowResponse),
				MeanSlowdown: table(multiRowSlowdown),
				MeanFairness: table(multiRowFairness),
				MeanMakespan: table(multiRowMakespan),
			}
			for pi, pol := range pols {
				res.Policies[pi] = pol.Name()
				for row := 0; row < multiCellRows; row++ {
					t := row*nP + pi
					tables[t] = rows[t*nR : (t+1)*nR]
					for ri := range g.ArrivalRates {
						tables[t][ri] = blocks[pi*nR+ri][row]
					}
				}
			}
			return res
		},
	}, nil
}
