package rumr

import (
	"context"
	"io"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
)

// Grid describes a parameter sweep over the paper's experimental space.
type Grid = experiment.Grid

// Config is one platform configuration of a grid.
type Config = experiment.Config

// SweepResults holds per-(configuration, error, algorithm) mean makespans.
type SweepResults = experiment.Results

// Curves is the data behind the paper's normalised-makespan figures.
type Curves = experiment.Curves

// WinTable is the data behind the paper's Tables 2 and 3.
type WinTable = experiment.WinTable

// PaperGrid returns the full Table 1 grid (hours of compute);
// ReducedGrid a laptop-sized subsample; Fig5Grid the single configuration
// of Fig. 5.
var (
	PaperGrid   = experiment.PaperGrid
	ReducedGrid = experiment.ReducedGrid
	Fig5Grid    = experiment.Fig5Grid
)

// StandardAlgorithms returns RUMR (baseline) plus the six competitors of
// §5.1 in the paper's order.
func StandardAlgorithms() []Scheduler { return experiment.StandardAlgorithms() }

// Metrics collects live counters of a running sweep — simulations
// completed, DES events processed, chunks dispatched, configurations done
// — safe to snapshot concurrently for progress display.
type Metrics = metrics.Collector

// MetricsSnapshot is a point-in-time view of a Metrics collector with
// derived rates (runs/sec, ETA).
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns a collector whose rate clock starts now.
func NewMetrics() *Metrics { return metrics.New() }

// SweepOptions configure a parameter sweep.
type SweepOptions struct {
	// Algorithms to compare; index 0 is the normalisation baseline.
	// Nil selects StandardAlgorithms().
	Algorithms []Scheduler
	// Workers bounds the goroutine pool (0 = all CPUs).
	Workers int
	// Model selects the error distribution.
	Model ErrorModel
	// UnknownError hides the error magnitude from the schedulers.
	UnknownError bool
	// Progress, when non-nil, is called after each finished configuration.
	// Calls come from the sweep's worker goroutines but are serialized —
	// they never overlap, and done is strictly increasing.
	Progress func(done, total int)
	// CheckpointPath, when non-empty, enables checkpoint/resume: completed
	// configurations are appended to this JSONL file and skipped when the
	// same sweep is restarted. A resumed sweep is bit-identical to an
	// uninterrupted one; a checkpoint from a different sweep is rejected.
	CheckpointPath string
	// CachePath, when non-empty, enables the content-addressed result
	// cache: each configuration's mean block is stored under a key derived
	// from the sweep parameters and the configuration's values, so
	// re-sweeps after a grid extension compute only the new cells. The
	// cache is shared freely between local and distributed sweeps.
	CachePath string
	// Metrics, when non-nil, receives live run counters.
	Metrics *Metrics
}

// Sweep runs every algorithm over every (configuration, error,
// repetition) cell of the grid in parallel and returns the mean makespans.
func Sweep(g Grid, opts SweepOptions) (*SweepResults, error) {
	return SweepContext(context.Background(), g, opts)
}

// SweepContext is Sweep under a context: cancelling ctx (for example from
// a signal handler) promptly stops all in-flight configurations and
// returns ctx.Err(). Combined with SweepOptions.CheckpointPath, a
// cancelled sweep can be resumed later without recomputing finished
// configurations.
func SweepContext(ctx context.Context, g Grid, opts SweepOptions) (*SweepResults, error) {
	algos := opts.Algorithms
	if algos == nil {
		algos = experiment.StandardAlgorithms()
	}
	r := &experiment.Runner{
		Algorithms:     algos,
		Workers:        opts.Workers,
		ErrorModel:     opts.Model,
		UnknownError:   opts.UnknownError,
		Progress:       opts.Progress,
		CheckpointPath: opts.CheckpointPath,
		CachePath:      opts.CachePath,
		Metrics:        opts.Metrics,
	}
	return r.SweepContext(ctx, g)
}

// ComputeWinTable reproduces Tables 2 (margin 0) and 3 (margin 0.10): the
// percentage of experiments, per error bucket, in which the baseline beat
// each competitor by more than margin.
func ComputeWinTable(res *SweepResults, margin float64) *WinTable {
	return experiment.ComputeWinTable(res, margin, experiment.PaperBuckets())
}

// ComputeCurves reproduces the normalised-makespan figures. filter
// restricts the configurations (nil = all; LowLatencyFilter = Fig. 4(b)).
func ComputeCurves(res *SweepResults, filter func(Config) bool) *Curves {
	return experiment.ComputeCurves(res, filter)
}

// LowLatencyFilter selects cLat < 0.3 and nLat < 0.3 — Fig. 4(b).
func LowLatencyFilter(c Config) bool { return experiment.LowLatencyFilter(c) }

// OverallWinPercent is the paper's headline aggregate ("RUMR outperforms
// competing algorithms in 79% of our experiments").
func OverallWinPercent(res *SweepResults, margin float64) float64 {
	return experiment.OverallWinPercent(res, margin)
}

// WriteWinTable renders a win table as aligned text.
func WriteWinTable(w io.Writer, wt *WinTable, title string) error {
	return experiment.RenderWinTable(wt, title).Write(w)
}

// WriteCurvesChart renders curves as an ASCII chart.
func WriteCurvesChart(w io.Writer, cv *Curves, title string) error {
	return experiment.RenderCurves(cv, title).Write(w)
}

// WriteCurvesTable renders curves as a numeric table.
func WriteCurvesTable(w io.Writer, cv *Curves, title string) error {
	return experiment.CurvesTable(cv, title).Write(w)
}

// WriteCurvesCSV renders curves as CSV for external plotting.
func WriteCurvesCSV(w io.Writer, cv *Curves, title string) error {
	return experiment.RenderCurves(cv, title).WriteCSV(w)
}

// WriteCurvesSVG renders curves as a standalone SVG figure in the style
// of the paper's plots.
func WriteCurvesSVG(w io.Writer, cv *Curves, title string) error {
	return experiment.RenderCurves(cv, title).WriteSVG(w)
}

// WriteWinTableCSV renders a win table as CSV.
func WriteWinTableCSV(w io.Writer, wt *WinTable, title string) error {
	return experiment.RenderWinTable(wt, title).WriteCSV(w)
}

// Gantt renders a recorded trace as an ASCII Gantt chart with the given
// worker count and width.
func Gantt(tr *Trace, workers, width int) string { return tr.Gantt(workers, width) }
