package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	rumrsched "rumr/internal/sched/rumr"
)

func smallMultiJobGrid() MultiJobGrid {
	return MultiJobGrid{
		Config:       Config{N: 4, R: 1.8, CLat: 0.3, NLat: 0.9},
		Jobs:         3,
		ArrivalRates: []float64{0, 0.05},
		Error:        0,
		Reps:         2,
		Total:        60,
		BaseSeed:     77,
	}
}

func multiJobRunner(met *metrics.Collector) *Runner {
	return &Runner{
		Algorithms: []sched.Scheduler{
			rumrsched.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1},
		},
		Workers: 2,
		Metrics: met,
	}
}

func TestMultiJobSweepShapeAndInvariants(t *testing.T) {
	met := metrics.New()
	res, err := multiJobRunner(met).MultiJob(smallMultiJobGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %v, want all built-ins", res.Policies)
	}
	for pi := range res.Policies {
		if len(res.MeanSlowdown[pi]) != 2 {
			t.Fatalf("rate axis size %d", len(res.MeanSlowdown[pi]))
		}
		for ri := range res.MeanSlowdown[pi] {
			for ai, s := range res.MeanSlowdown[pi][ri] {
				// Perfect predictions + serialised port: no job can beat
				// its isolated lower bound, so mean slowdown >= 1.
				if math.IsNaN(s) || s < 1 {
					t.Fatalf("slowdown[%s][%d][%s] = %g", res.Policies[pi], ri, res.Algorithms[ai], s)
				}
				f := res.MeanFairness[pi][ri][ai]
				if !(f > 0 && f <= 1+1e-12) {
					t.Fatalf("fairness[%s][%d][%s] = %g", res.Policies[pi], ri, res.Algorithms[ai], f)
				}
				if res.MeanResponse[pi][ri][ai] <= 0 || res.MeanMakespan[pi][ri][ai] <= 0 {
					t.Fatalf("degenerate means at [%d][%d][%d]", pi, ri, ai)
				}
			}
		}
	}
	s := met.Snapshot()
	// 3 policies x 2 rates x 2 reps x 3 algorithms runs.
	if s.MultiJobRuns != 36 {
		t.Fatalf("multi-job runs recorded = %d, want 36", s.MultiJobRuns)
	}
	if s.JobSlowdown.Count != 36*3 {
		t.Fatalf("job slowdown observations = %d, want %d", s.JobSlowdown.Count, 36*3)
	}
	if s.JobSlowdown.Min < 1 {
		t.Fatalf("recorded slowdown below 1: %g", s.JobSlowdown.Min)
	}
}

// The sweep must be bit-deterministic regardless of pool size.
func TestMultiJobSweepDeterministic(t *testing.T) {
	g := smallMultiJobGrid()
	g.Error = 0.2 // exercise the error streams too
	a, err := multiJobRunner(nil).MultiJob(g)
	if err != nil {
		t.Fatal(err)
	}
	r2 := multiJobRunner(nil)
	r2.Workers = 1
	b, err := r2.MultiJob(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.MeanResponse, b.MeanResponse) ||
		!reflect.DeepEqual(a.MeanSlowdown, b.MeanSlowdown) ||
		!reflect.DeepEqual(a.MeanFairness, b.MeanFairness) ||
		!reflect.DeepEqual(a.MeanMakespan, b.MeanMakespan) {
		t.Fatal("multi-job sweep results depend on pool size or run")
	}
}

func TestMultiJobGridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*MultiJobGrid)
	}{
		{"no jobs", func(g *MultiJobGrid) { g.Jobs = 0 }},
		{"no rates", func(g *MultiJobGrid) { g.ArrivalRates = nil }},
		{"negative rate", func(g *MultiJobGrid) { g.ArrivalRates = []float64{-1} }},
		{"no reps", func(g *MultiJobGrid) { g.Reps = 0 }},
		{"no total", func(g *MultiJobGrid) { g.Total = 0 }},
		{"bad policy", func(g *MultiJobGrid) { g.Policies = []string{"lottery"} }},
		{"no workers", func(g *MultiJobGrid) { g.Config.N = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := smallMultiJobGrid()
			tc.mutate(&g)
			if _, err := multiJobRunner(nil).MultiJob(g); err == nil {
				t.Fatal("degenerate grid accepted")
			}
		})
	}
}

func TestMultiJobSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := smallMultiJobGrid()
	if _, err := multiJobRunner(nil).MultiJobContext(ctx, g); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

// TestMultiJobCheckpointResumeBitIdentical is the multi-job twin of
// TestCheckpointResumeBitIdentical: a study cancelled mid-sweep and
// resumed from its checkpoint restores the finished cells, computes only
// the rest, and ends bit-identical to an uninterrupted study.
func TestMultiJobCheckpointResumeBitIdentical(t *testing.T) {
	g := smallMultiJobGrid()
	g.ArrivalRates = []float64{0, 0.02, 0.05, 0.1} // 3 policies x 4 rates = 12 cells
	ckpt := filepath.Join(t.TempDir(), "multijob.jsonl")

	// Phase 1: cancel after 5 cells.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r1 := multiJobRunner(nil)
	r1.CheckpointPath = ckpt
	r1.Progress = func(done, total int) {
		if done == 5 {
			cancel()
		}
	}
	if _, err := r1.MultiJobContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted study err = %v, want context.Canceled", err)
	}

	// Phase 2: resume; only the cells missing from the checkpoint run.
	m := metrics.New()
	r2 := multiJobRunner(m)
	r2.CheckpointPath = ckpt
	resumed, err := r2.MultiJob(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(engine.LinkPolicies()) * len(g.ArrivalRates))
	s := m.Snapshot()
	if s.ConfigsTotal != cells || s.ConfigsSkipped < 5 || s.ConfigsSkipped >= cells || s.ConfigsDone != cells {
		t.Fatalf("resume metrics done/skipped/total = %d/%d/%d, want %d/[5,%d)/%d",
			s.ConfigsDone, s.ConfigsSkipped, s.ConfigsTotal, cells, cells, cells)
	}
	if want := (cells - s.ConfigsSkipped) * int64(g.Reps*len(r2.Algorithms)); s.MultiJobRuns != want {
		t.Fatalf("resumed study simulated %d runs, want %d (missing cells only)", s.MultiJobRuns, want)
	}

	// Reference: one uninterrupted study, no checkpoint.
	full, err := multiJobRunner(nil).MultiJob(g)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range full.Policies {
		for ri := range g.ArrivalRates {
			assertCellsIdentical(t, fmt.Sprintf("%s/rate%g", full.Policies[pi], g.ArrivalRates[ri]),
				[][]float64{resumed.MeanResponse[pi][ri], resumed.MeanSlowdown[pi][ri], resumed.MeanFairness[pi][ri], resumed.MeanMakespan[pi][ri]},
				[][]float64{full.MeanResponse[pi][ri], full.MeanSlowdown[pi][ri], full.MeanFairness[pi][ri], full.MeanMakespan[pi][ri]})
		}
	}
}
