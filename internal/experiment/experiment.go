// Package experiment reproduces the evaluation methodology of §5: it sweeps
// the parameter grid of Table 1, runs every scheduler on every
// (configuration, error, repetition) triple, and aggregates the results
// into the paper's tables (win percentages per error bucket) and figures
// (mean makespan normalised to RUMR versus error).
//
// The sweep is embarrassingly parallel. Every Runner study — this sweep,
// the multi-job study, the resilience study and the heterogeneity study —
// is a list of keyed cells that runs through one worker pool (one
// goroutine per CPU by default) and one SweepState, which restores and
// persists cells through the checkpoint and the result cache.
// Reproducibility is exact: the sweep's error streams are seeded from
// (base seed, configuration values, error value, repetition), independent
// of scheduling order, and the same streams are shared by all algorithms
// at a given triple (common random numbers).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
)

// Config is one platform point of the grid: N homogeneous workers with
// S = 1, B = R·N, and the two latencies.
type Config struct {
	N          int
	R          float64
	CLat, NLat float64
}

// Platform instantiates the configuration.
func (c Config) Platform() *platform.Platform {
	return platform.Homogeneous(c.N, 1, c.R*float64(c.N), c.CLat, c.NLat)
}

// String labels the configuration in reports.
func (c Config) String() string {
	return fmt.Sprintf("N=%d r=%.1f cLat=%.1f nLat=%.1f", c.N, c.R, c.CLat, c.NLat)
}

// Grid is a full sweep description.
type Grid struct {
	Ns     []int
	Rs     []float64
	CLats  []float64
	NLats  []float64
	Errors []float64
	// Reps is the number of repetitions per (config, error) — the paper
	// uses 40.
	Reps int
	// Total is W_total (the paper uses 1000).
	Total float64
	// BaseSeed makes the whole sweep reproducible.
	BaseSeed uint64
}

// Configs expands the grid into its configuration list.
func (g Grid) Configs() []Config {
	var out []Config
	g.eachConfig(func(c Config) error { out = append(out, c); return nil })
	return out
}

// eachConfig calls f on every configuration in grid order, stopping at
// and returning f's first error. It allocates nothing itself.
func (g Grid) eachConfig(f func(Config) error) error {
	for _, n := range g.Ns {
		for _, r := range g.Rs {
			for _, cl := range g.CLats {
				for _, nl := range g.NLats {
					if err := f(Config{N: n, R: r, CLat: cl, NLat: nl}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Runs returns the total number of simulations the grid implies for k
// algorithms.
func (g Grid) Runs(k int) int {
	return len(g.Configs()) * len(g.Errors) * g.Reps * k
}

// Validate checks that the configuration describes a platform the
// engine can simulate: at least one worker, a finite positive r and
// finite non-negative latencies. Anything else panics in the engine or
// yields NaN makespans without an error.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("experiment: %s: need N >= 1", c)
	case !(c.R > 0) || math.IsInf(c.R, 1):
		return fmt.Errorf("experiment: %s: need a finite r > 0", c)
	case !(c.CLat >= 0) || !(c.NLat >= 0) || math.IsInf(c.CLat, 1) || math.IsInf(c.NLat, 1):
		return fmt.Errorf("experiment: %s: latencies must be finite and >= 0", c)
	}
	return nil
}

// Validate checks that the grid describes a runnable sweep: at least one
// value on every axis, every configuration valid, finite non-negative
// error magnitudes, a positive repetition count and a finite positive
// workload. Every sweep entry point (the local Runner pool, a shard
// worker's Runner, the coordinator via OpenSweepState) validates up
// front, because a malformed grid otherwise fails confusingly deep in the
// sweep — most subtly Total <= 0, which degrades the dispatched-work
// conservation check |dispatched-Total| > 1e-6·Total to exact equality.
func (g Grid) Validate() error {
	switch {
	case len(g.Ns) == 0, len(g.Rs) == 0, len(g.CLats) == 0, len(g.NLats) == 0:
		return fmt.Errorf("%w: every platform axis (Ns, Rs, CLats, NLats) needs at least one value", errEmptyGrid)
	case len(g.Errors) == 0:
		return fmt.Errorf("%w: no error magnitudes", errEmptyGrid)
	case g.Reps <= 0:
		return fmt.Errorf("experiment: Reps=%d, need at least one repetition", g.Reps)
	case !(g.Total > 0) || math.IsInf(g.Total, 1):
		return fmt.Errorf("experiment: Total=%g, the workload must be finite and positive", g.Total)
	}
	for _, e := range g.Errors {
		if !(e >= 0) || math.IsInf(e, 1) {
			return fmt.Errorf("experiment: error magnitude %g, need finite and >= 0", e)
		}
	}
	// Not Configs: ComputeCellInto validates per cell and must not allocate.
	return g.eachConfig(Config.Validate)
}

// seq returns {from, from+step, ..., to} inclusive (within fp tolerance).
func seq(from, to, step float64) []float64 {
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, math.Round(x*1e9)/1e9)
	}
	return out
}

// PaperGrid is the full Table 1 grid with the paper's 40 repetitions and
// error swept 0..0.48 in steps of 0.02 (five values per bucket of
// Tables 2-3). It implies ~69M simulations for the 7 standard algorithms;
// `rumrsweep -full -table2` ran them in 695 s on a 2-core VM at commit
// 9ea2a70.
func PaperGrid() Grid {
	return Grid{
		Ns:       []int{10, 15, 20, 25, 30, 35, 40, 45, 50},
		Rs:       seq(1.2, 2.0, 0.1),
		CLats:    seq(0, 1, 0.1),
		NLats:    seq(0, 1, 0.1),
		Errors:   seq(0, 0.48, 0.02),
		Reps:     40,
		Total:    1000,
		BaseSeed: 2003,
	}
}

// ReducedGrid subsamples the paper grid so the whole study runs in minutes
// on a laptop while preserving the coverage of every parameter dimension.
// EXPERIMENTS.md records which grid produced each reported number.
func ReducedGrid() Grid {
	return Grid{
		Ns:       []int{10, 20, 30, 40, 50},
		Rs:       []float64{1.2, 1.6, 2.0},
		CLats:    []float64{0, 0.3, 0.6, 0.9},
		NLats:    []float64{0, 0.3, 0.6, 0.9},
		Errors:   seq(0, 0.48, 0.04),
		Reps:     10,
		Total:    1000,
		BaseSeed: 2003,
	}
}

// SmokeGrid is a minimal grid for tests and -short benchmarks.
func SmokeGrid() Grid {
	return Grid{
		Ns:       []int{10, 20},
		Rs:       []float64{1.5},
		CLats:    []float64{0.1, 0.5},
		NLats:    []float64{0.1, 0.5},
		Errors:   []float64{0, 0.1, 0.2, 0.3, 0.4},
		Reps:     5,
		Total:    1000,
		BaseSeed: 2003,
	}
}

// Fig5Grid is the single configuration of Fig. 5: cLat=0.3, nLat=0.9,
// N=20, B=36 (r=1.8), with the paper's fine error sweep and repetitions.
func Fig5Grid() Grid {
	return Grid{
		Ns:       []int{20},
		Rs:       []float64{1.8},
		CLats:    []float64{0.3},
		NLats:    []float64{0.9},
		Errors:   seq(0, 0.48, 0.02),
		Reps:     40,
		Total:    1000,
		BaseSeed: 2003,
	}
}

// StandardAlgorithms returns the seven schedulers of §5.1: RUMR first (the
// normalisation baseline), then UMR, MI-1..4 and Factoring.
func StandardAlgorithms() []sched.Scheduler {
	return []sched.Scheduler{
		rumr.Scheduler{},
		umr.Scheduler{},
		mi.Scheduler{Installments: 1},
		mi.Scheduler{Installments: 2},
		mi.Scheduler{Installments: 3},
		mi.Scheduler{Installments: 4},
		factoring.Scheduler{},
	}
}

// Fig6Algorithms returns original RUMR plus the fixed-split variants of
// §5.2.1 (50%..90% of the workload in phase 1).
func Fig6Algorithms() []sched.Scheduler {
	out := []sched.Scheduler{rumr.Scheduler{}}
	for _, f := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		out = append(out, rumr.Scheduler{FixedPhase1Fraction: f})
	}
	return out
}

// Fig7Algorithms returns original RUMR plus the plain-phase-1 variant of
// §5.2.2.
func Fig7Algorithms() []sched.Scheduler {
	return []sched.Scheduler{rumr.Scheduler{}, rumr.Scheduler{PlainPhase1: true}}
}

// ErrorModelKind selects the distribution of the prediction-error ratio.
type ErrorModelKind = perferr.Kind

const (
	// NormalError is the paper's truncated normal model.
	NormalError = perferr.NormalError
	// UniformError is the alternative the paper reports as "essentially
	// similar".
	UniformError = perferr.UniformError
)

// Results holds the mean makespans of a sweep, indexed
// [config][error][algorithm].
type Results struct {
	Grid       Grid
	Configs    []Config
	Algorithms []string
	// Mean[c][e][a] is the mean makespan over repetitions; NaN marks an
	// algorithm that failed on the configuration.
	Mean [][][]float64
}

// Runner executes sweeps.
type Runner struct {
	// Algorithms to compare; index 0 is the normalisation baseline.
	Algorithms []sched.Scheduler
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// ErrorModel selects the ratio distribution (default: NormalError).
	ErrorModel ErrorModelKind
	// KnownError feeds the true error magnitude to the schedulers (the
	// paper's "error is known" scenario). When false, schedulers see
	// KnownError = -1 (unknown) and fall back to their fixed defaults.
	UnknownError bool
	// Progress, when non-nil, receives the number of finished cells of a
	// study (configurations of the paper sweep) out of the total after
	// each cell completes. Concurrency contract: Progress is invoked from
	// the pool's worker goroutines but never concurrently — calls are
	// serialized under a runner-internal mutex and the reported done count
	// is strictly increasing. Cells restored from a checkpoint are
	// included in the first reported done value but do not trigger
	// callbacks of their own.
	Progress func(done, total int)
	// CheckpointPath, when non-empty, enables checkpoint/resume for every
	// study: each completed cell's block is appended to this JSONL file,
	// and a study restarted with the same grid, algorithms and error model
	// skips the cells already on record. Seeding per cell and repetition
	// makes a resumed study bit-identical to an uninterrupted one. A
	// checkpoint written by a different study (mismatched fingerprint) is
	// rejected.
	CheckpointPath string
	// CachePath, when non-empty, is the directory of a content-addressed
	// result cache shared across studies (and with the shard coordinator):
	// every completed cell's block is stored under a key derived from the
	// study parameters and the cell's values — for the paper sweep not its
	// grid position — so extending a grid with new configurations and
	// re-sweeping computes only the added cells. Restored blocks are
	// bit-identical to recomputed ones.
	CachePath string
	// Metrics, when non-nil, collects live counters — simulations
	// completed, DES events, chunks dispatched, configurations done — that
	// callers can snapshot concurrently for progress display.
	Metrics *metrics.Collector

	// cells pools CellStates across the configurations this runner
	// computes, so the platform, memo, dispatcher prototypes and RNG
	// buffers of a finished cell are recycled by the next one instead of
	// reallocated. sync.Pool is concurrency-safe, matching the worker
	// pool; each CellState is used by one goroutine at a time.
	cells sync.Pool
	// mcells pools MultiCellStates the same way for the multi-job sweep's
	// (policy, arrival rate) cells.
	mcells sync.Pool
	// plans is the shared plan tier behind every cell's memo: MI's
	// latency-free plans, solved once per (N, B, S, workload, x) for the
	// runner's lifetime rather than once per cell.
	plans sched.SharedPlans
}

// knownError is the error magnitude the schedulers are told for a true
// magnitude of errMag: errMag itself, or -1 when UnknownError hides it.
func (r *Runner) knownError(errMag float64) float64 {
	if r.UnknownError {
		return -1
	}
	return errMag
}

// Sweep runs the grid and returns per-(config, error, algorithm) mean
// makespans. It is SweepContext with a background context.
func (r *Runner) Sweep(g Grid) (*Results, error) {
	return r.SweepContext(context.Background(), g)
}

// SweepContext runs the grid under ctx. Cancelling ctx — or the first hard
// error from any worker — promptly stops all in-flight configurations;
// cancellation mid-configuration is detected between repetitions. When the
// sweep was cut short, the returned error is the cause (ctx.Err() for
// external cancellation) and the partial Results must not be used — resume
// via CheckpointPath instead.
func (r *Runner) SweepContext(ctx context.Context, g Grid) (*Results, error) {
	if len(r.Algorithms) == 0 {
		return nil, errNoAlgorithms
	}
	st, err := OpenSweepState(g, r.names(), r.ErrorModel, r.UnknownError, r.CheckpointPath, r.CachePath)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	configs := st.Results.Configs
	if err := r.runCells(ctx, st, func(ctx context.Context, ci int) ([][]float64, error) {
		block, _, err := r.ComputeConfig(ctx, g, configs[ci])
		return block, err
	}); err != nil {
		return nil, err
	}
	return st.Results, nil
}

// names returns the algorithms' names, the column labels of every study.
func (r *Runner) names() []string {
	names := make([]string, len(r.Algorithms))
	for i, a := range r.Algorithms {
		names[i] = a.Name()
	}
	return names
}

// runCells computes st's pending cells on the runner's pool and
// completes each into st. Both progress denominators count every cell of
// the study: cells restored by the last restore are reported as done
// (and as skipped in the metrics, so rate/ETA reflect only real
// compute). Progress calls are serialized.
func (r *Runner) runCells(ctx context.Context, st *SweepState, compute func(ctx context.Context, i int) ([][]float64, error)) error {
	if r.Metrics != nil {
		r.Metrics.AddTotalConfigs(st.staged)
		r.Metrics.SkipConfigs(st.Restored())
	}
	return r.ForEach(ctx, st.Pending, func(ctx context.Context, i int) error {
		start := time.Now()
		block, err := compute(ctx, i)
		if err != nil {
			return err
		}
		if err := st.Complete(i, block); err != nil {
			return err
		}
		if r.Metrics != nil {
			r.Metrics.ConfigDone(time.Since(start))
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.done++
		if r.Progress != nil {
			r.Progress(st.done, len(st.blocks))
		}
		return nil
	})
}

// ForEach calls do for every index of cells on the runner's worker pool
// (Workers goroutines, GOMAXPROCS when 0, never more than there are
// cells) — the one fan-out every study and every shard lease runs
// through. The first hard error cancels the remaining cells and is
// returned; a cell cut short by cancellation is not an error of its own,
// the cause (parent.Err() for external cancellation) is. Cells not
// started before the cancellation are skipped.
func (r *Runner) ForEach(parent context.Context, cells []int, do func(ctx context.Context, i int) error) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cells))
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	jobs := make(chan int)
	// One value holds the pool's shared state, so it costs one allocation.
	// Its mutex guards err.
	var pool struct {
		sync.Mutex
		sync.WaitGroup
		err error
	}
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain the queue without working
				}
				err := do(ctx, i)
				if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					continue // done, or cut short (not failed; the cause is reported below)
				}
				pool.Lock()
				if pool.err == nil {
					pool.err = err
					cancel() // first hard error stops the whole pool
				}
				pool.Unlock()
			}
		}()
	}
feed:
	for _, i := range cells {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	pool.Wait()
	if pool.err != nil {
		return pool.err
	}
	return parent.Err()
}

// cellShapeOK validates a checkpoint-restored mean block against the
// sweep's dimensions (defense against a hand-edited checkpoint file).
func cellShapeOK(cell [][]float64, errors, algos int) bool {
	if len(cell) != errors {
		return false
	}
	for _, row := range cell {
		if len(row) != algos {
			return false
		}
	}
	return true
}

// CellCounters is one computed cell's telemetry: its engine counters and
// the plans its prototype builds constructed or took from the runner's
// shared tier (none when a pooled CellState was prepared for the cell).
type CellCounters struct {
	Engine                  engine.Counters
	PlansBuilt, PlansShared int
}

// ComputeConfig simulates every (error, rep, algorithm) run of one
// configuration through a pooled CellState and returns its
// [error][algorithm] mean block with the cell's telemetry. Each run's
// error streams are derived from (BaseSeed, config values, error value,
// rep) — the configuration's *values*, not its position in the grid — so
// all algorithms face the same random environment (common random
// numbers), results do not depend on goroutine scheduling or on which
// process computes the block (local pool worker or remote shard worker),
// and extending a grid with new configurations leaves the blocks of the
// existing ones bit-identical (which is what makes the content-addressed
// result cache sound). Cancellation is checked between repetitions; a
// cancelled configuration returns ctx.Err().
func (r *Runner) ComputeConfig(ctx context.Context, g Grid, cfg Config) ([][]float64, CellCounters, error) {
	cs, _ := r.cells.Get().(*CellState)
	if cs == nil {
		cs = NewCellState()
	}
	defer r.cells.Put(cs)
	cell := NewCellBlock(len(g.Errors), len(r.Algorithms))
	if err := r.ComputeCellInto(ctx, g, cfg, cs, cell); err != nil {
		return nil, CellCounters{}, err
	}
	return cell, cs.counters, nil
}
