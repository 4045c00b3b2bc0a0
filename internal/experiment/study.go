package experiment

// One driver for every study. The paper sweep and the multi-job,
// resilience and heterogeneity studies are each a study value — cells of
// one block shape, each with a content address, a compute function and a
// per-row value rule — and Runner.run drives any of them: it restores
// what the checkpoint and the cache hold, computes the rest on the pool
// or a Fleet, and persists each block as it completes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// Job names one study and carries what fixes its cells' bytes: what a
// process needs to compute any of its cells. Shard workers lease Jobs.
type Job struct {
	// Study is "" for the paper sweep, else "multijob", "resilience" or
	// "hetero"; Grid is the study's grid as JSON.
	Study string          `json:"study,omitempty"`
	Grid  json.RawMessage `json:"grid"`
	// Algorithms are scheduler names, index 0 the baseline.
	Algorithms   []string       `json:"algorithms"`
	Model        ErrorModelKind `json:"model"`
	UnknownError bool           `json:"unknown_error"`
	// Horizon is the resilience study's fault horizon, derived from its
	// baseline wave for its crash-rate wave.
	Horizon float64 `json:"horizon,omitempty"`
}

// Fleet computes a study's cells in other processes: the shard
// coordinator leases them to joined workers.
type Fleet interface {
	// Compute computes st's pending cells, cells of st.Job(), recording
	// each with st.Complete. It returns once all are complete, on ctx's
	// cancellation or on the first failure; a study calls it per wave.
	Compute(ctx context.Context, st *SweepState) error
}

// study describes one study to the driver.
type study struct {
	job  Job // Grid is filled only for a Fleet
	grid any // the typed grid, which the fingerprint hashes
	// cells, each a rows × cols block. When first > 0, cells [0, first)
	// are a first wave, and advance derives the rest's inputs from them.
	cells, rows, cols, first int
	advance                  func(blocks [][][]float64) error
	// key is cell i's content address and cache label.
	key     func(i int) (string, Config)
	compute func(ctx context.Context, i int) ([][]float64, CellCounters, error)
	// zeroRows lists the rows whose values may be zero; the others must
	// be positive. Blocks from outside the process (checkpoint, cache,
	// worker) are held to this rule.
	zeroRows []int
	// order, when non-nil, reorders a wave's pending cells.
	order   func(pending []int)
	results func(blocks [][][]float64) any
}

// studies builds a study's descriptor from a Job, by the study's name.
var studies = map[string]func(r *Runner, job Job) (*study, error){
	"":           decoded((*Runner).sweepStudy),
	"multijob":   decoded((*Runner).multiJobStudy),
	"resilience": decoded((*Runner).resilienceStudy),
	"hetero":     decoded((*Runner).heteroStudy),
}

func decoded[G any](build func(*Runner, Job, G) (*study, error)) func(*Runner, Job) (*study, error) {
	return func(r *Runner, job Job) (*study, error) {
		var g G
		if err := json.Unmarshal(job.Grid, &g); err != nil {
			return nil, fmt.Errorf("experiment: %q grid: %w", job.Study, err)
		}
		return build(r, job, g)
	}
}

// study builds job's descriptor. Unless r hands its cells to a Fleet, r
// must compute job's algorithms with its error model and visibility.
func (r *Runner) study(job Job) (*study, error) {
	if r.Fleet == nil && (!slices.Equal(r.names(), job.Algorithms) ||
		r.ErrorModel != job.Model || r.UnknownError != job.UnknownError) {
		return nil, errors.New("experiment: the runner does not compute the job's algorithms, error model and visibility")
	}
	build, ok := studies[job.Study]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown study %q", job.Study)
	}
	return build(r, job)
}

// Run runs the study job names — how the shard coordinator, which knows
// it only by its Job, runs it — and returns a *Results, *MultiJobResults,
// *ResilienceResults or *HeteroResults.
func (r *Runner) Run(ctx context.Context, job Job) (any, error) {
	s, err := r.study(job)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, s)
}

// Cells returns the function computing cell i of job's study on r; shard
// workers compute their leases through it.
func (r *Runner) Cells(job Job) (func(ctx context.Context, i int) ([][]float64, CellCounters, error), error) {
	s, err := r.study(job)
	if err != nil {
		return nil, err
	}
	return s.compute, nil
}

// runAs runs the study build makes of grid for r's algorithms, error
// model and visibility, and returns its results.
func runAs[R, G any](ctx context.Context, r *Runner, build func(*Runner, Job, G) (*study, error), grid G) (R, error) {
	var none R
	s, err := build(r, Job{Algorithms: r.names(), Model: r.ErrorModel, UnknownError: r.UnknownError}, grid)
	if err != nil {
		return none, err
	}
	res, err := r.run(ctx, s)
	if err != nil {
		return none, err
	}
	return res.(R), nil
}

// run is the driver of every study: wave by wave, it restores cells from
// the checkpoint and the cache and computes the rest on the pool or the
// Fleet. Restored cells count as done in the progress report and as
// skipped in the metrics.
func (r *Runner) run(ctx context.Context, s *study) (any, error) {
	st, err := openState(s, r.CheckpointPath, r.CachePath, r.Fleet != nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	st.met, st.progress = r.Metrics, r.Progress
	if r.Fleet != nil && s.job.Grid == nil {
		if s.job.Grid, err = json.Marshal(s.grid); err != nil {
			return nil, err
		}
	}
	to := s.cells
	if s.first > 0 {
		to = s.first
	}
	for from := 0; from < s.cells; from, to = to, s.cells {
		if from > 0 {
			if err := s.advance(st.blocks); err != nil {
				return nil, err
			}
		}
		st.restore(from, to)
		if r.Metrics != nil {
			r.Metrics.AddTotalConfigs(st.staged)
			r.Metrics.SkipConfigs(st.staged - len(st.Pending))
		}
		if r.Fleet != nil {
			err = r.Fleet.Compute(ctx, st)
		} else {
			err = r.ForEach(ctx, st.Pending, st.computeLocal)
		}
		if err != nil {
			return nil, err
		}
	}
	return s.results(st.blocks), nil
}
