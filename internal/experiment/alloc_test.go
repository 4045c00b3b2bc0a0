package experiment

import (
	"context"
	"testing"

	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
)

// TestComputeCellIntoZeroAllocSteadyState pins the batch path's headline
// property: once a CellState is warm (prototypes built, pools populated,
// slices grown), recomputing the same cell allocates nothing. This is the
// test-level twin of the BenchmarkSweepCell allocs/op gate in
// BENCH_baseline.json.
func TestComputeCellIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := Grid{
		Ns:       []int{20},
		Rs:       []float64{1.5},
		CLats:    []float64{0.3},
		NLats:    []float64{0.3},
		Errors:   []float64{0, 0.3},
		Reps:     3,
		Total:    1000,
		BaseSeed: 2003,
	}
	cfg := g.Configs()[0]
	r := &Runner{Algorithms: StandardAlgorithms(), Workers: 1}
	cs := NewCellState()
	dst := NewCellBlock(len(g.Errors), len(r.Algorithms))
	ctx := context.Background()
	run := func() {
		if err := r.ComputeCellInto(ctx, g, cfg, cs, dst); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build prototypes, grow trace buffers and engine pools
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state cell computation allocated %v times per run, want 0", allocs)
	}
}

// TestMultiJobContextSingleCellAllocs bounds the per-call overhead of the
// multi-job study around its zero-alloc cell: the repo benchmark sweeps
// one single-cell grid at a time, so the result skeleton, sweep state and
// worker pool of every call count against its allocs_per_run bound.
func TestMultiJobContextSingleCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := DefaultMultiJobGrid()
	g.Reps = 100
	g.Policies = []string{"fcfs"}
	g.ArrivalRates = g.ArrivalRates[:1]
	r := &Runner{
		Algorithms: []sched.Scheduler{
			rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1},
		},
		Workers: 1,
	}
	run := func() {
		if _, err := r.MultiJob(g); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build prototypes, grow engine pools
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("allocs per call: %v", allocs)
	if allocs > 26 {
		t.Fatalf("single-cell MultiJobContext allocated %v times per call, want <= 26", allocs)
	}
}
