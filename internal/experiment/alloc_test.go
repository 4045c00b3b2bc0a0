package experiment

import (
	"context"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
)

// The sweep-cell benchmarks and their zero-alloc tests. Each pair calls
// one fixture, so plain `go test` fails on a new allocation in the exact
// body `go test -bench` measures.

// centralGrid is the paper's central configuration (N=20, r=1.5,
// cLat=nLat=0.3) at the given error levels, 10 repetitions each.
func centralGrid(errors ...float64) Grid {
	return Grid{
		Ns: []int{20}, Rs: []float64{1.5}, CLats: []float64{0.3}, NLats: []float64{0.3},
		Errors: errors, Reps: 10, Total: 1000, BaseSeed: 2003,
	}
}

// sweepCell returns one sweep cell the way the paper's tables consume
// them: every standard algorithm on the central configuration, through
// the batched ComputeCellInto core with a reused CellState and block. The
// sweep loop runs at this steady state: platform pooled, plans memoized,
// dispatcher prototypes reset instead of reconstructed.
func sweepCell(errors ...float64) func() error {
	g := centralGrid(errors...)
	cfg := g.Configs()[0]
	r := &Runner{Algorithms: StandardAlgorithms(), Workers: 1}
	cs := NewCellState()
	dst := NewCellBlock(len(g.Errors), len(r.Algorithms))
	return func() error { return r.ComputeCellInto(context.Background(), g, cfg, cs, dst) }
}

// multiJobCell returns the multi-job cells the way MultiJob consumes them:
// all repetitions of every (link policy, arrival rate) point of the
// default multi-job grid for the RUMR/Factoring/MI(1) trio, through the
// batched ComputeMultiJobCellInto core with a reused MultiCellState and
// block, so each policy's code weighs what it weighs in the sweep.
func multiJobCell() func() error {
	g := DefaultMultiJobGrid()
	r := &Runner{Algorithms: []sched.Scheduler{
		rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1},
	}, Workers: 1}
	pols := g.policies()
	cs := NewMultiCellState()
	dst := NewCellBlock(multiCellRows, len(r.Algorithms))
	return func() error {
		for _, pol := range pols {
			for _, rate := range g.ArrivalRates {
				if err := r.ComputeMultiJobCellInto(context.Background(), g, pol, rate, cs, dst); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// benchSteadyState times run after one warm-up run outside the timer, so
// allocs/op is the steady-state cost (prototypes built, pools populated).
func benchSteadyState(b *testing.B, run func() error) {
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// assertZeroAlloc warms run once, then requires it to allocate nothing.
func assertZeroAlloc(t *testing.T, what string, run func() error) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	once := func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	once() // warm: build prototypes, grow trace buffers and engine pools
	if allocs := testing.AllocsPerRun(10, once); allocs != 0 {
		t.Fatalf("steady-state %s allocated %v times per run, want 0", what, allocs)
	}
}

// BenchmarkSweepCell is the batched cell at the paper's error 0.3. Its
// interleaved twin BenchmarkCellReference (refbench_test.go) measures the
// same cell through the frozen pre-batch implementation.
func BenchmarkSweepCell(b *testing.B) { benchSteadyState(b, sweepCell(0.3)) }

// The test adds error level 0 to the benchmark's cell, so the perfect
// model's path is covered as well.
func TestComputeCellIntoZeroAllocSteadyState(t *testing.T) {
	assertZeroAlloc(t, "cell computation", sweepCell(0, 0.3))
}

// BenchmarkMultiJobCell is the multi-job sibling: dispatcher prototypes
// Reset between repetitions, error streams reseeded in place, arrivals
// regenerated into a held buffer.
func BenchmarkMultiJobCell(b *testing.B) { benchSteadyState(b, multiJobCell()) }

func TestMultiCellZeroAllocSteadyState(t *testing.T) {
	assertZeroAlloc(t, "multi-job cell computation", multiJobCell())
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

// TestEngineCountersPerAlgorithm runs each standard algorithm alone on
// the central configuration at error 0.3, so every counter in a row was
// accumulated by that scheduler's runs only, and logs where the engine
// work goes per simulated run (`go test -v -run
// TestEngineCountersPerAlgorithm ./internal/experiment/`). The counters
// must be live, identical across two computations of the same cell, and
// count no re-dispatch on this fault-free configuration. SyncViewCopies
// must equal the dispatcher consults, counted by a wrapper on a third
// computation, and SyncViewBytes must stay 0: every View aliases the
// engine's worker states.
func TestEngineCountersPerAlgorithm(t *testing.T) {
	g := centralGrid(0.3)
	cfg := g.Configs()[0]
	runs := float64(g.Reps * len(g.Errors))
	t.Logf("%-14s %8s %8s %8s %8s %6s %9s %8s", "algorithm",
		"pushed", "popped", "replaced", "cancels", "depth", "consults", "draws")
	for _, a := range StandardAlgorithms() {
		r := &Runner{Algorithms: []sched.Scheduler{a}}
		var ctrs [2]engine.Counters
		for i := range ctrs {
			_, cc, err := r.ComputeConfig(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctrs[i] = cc.Engine
		}
		c := ctrs[0]
		draws := c.TruncNormalDraws + c.UniformDraws + c.OtherDraws
		if c.EventsPushed == 0 || c.EventsPopped == 0 || c.MaxHeapDepth == 0 ||
			c.SyncViewCopies == 0 || draws == 0 {
			t.Errorf("%s: counters stayed zero: %+v", a.Name(), c)
		}
		if c.SyncViewBytes != 0 {
			t.Errorf("%s: SyncViewBytes = %d, want 0", a.Name(), c.SyncViewBytes)
		}
		var consults int64
		counted := &Runner{Algorithms: []sched.Scheduler{countingScheduler{a, &consults}}}
		_, cc, err := counted.ComputeConfig(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cc.Engine.SyncViewCopies != consults || cc.Engine.SyncViewBytes != 0 {
			t.Errorf("%s: %d view copies, %d bytes for %d consults",
				a.Name(), cc.Engine.SyncViewCopies, cc.Engine.SyncViewBytes, consults)
		}
		if c != ctrs[1] {
			t.Errorf("%s: counters differ across identical cells:\n%+v\n%+v", a.Name(), c, ctrs[1])
		}
		if c.Redispatches != 0 {
			t.Errorf("%s: fault-free cell counted %d redispatches", a.Name(), c.Redispatches)
		}
		per := func(v int64) float64 { return float64(v) / runs }
		t.Logf("%-14s %8.0f %8.0f %8.0f %8.0f %6d %9.0f %8.0f", a.Name(),
			per(c.EventsPushed), per(c.EventsPopped), per(c.EventsReplaced), per(c.LazyCancels),
			c.MaxHeapDepth, per(c.SyncViewCopies), per(draws))
	}
}

// countingScheduler wraps each dispatcher of the embedded scheduler so
// every Next call adds one to *consults. The wrapper hides the optional
// capabilities, as opaqueDispatcher does, so the counted cell may consult
// more often than the plain one; its counters are checked against its
// own count.
type countingScheduler struct {
	sched.Scheduler
	consults *int64
}

func (s countingScheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	d, err := s.Scheduler.NewDispatcher(pr)
	if err != nil {
		return nil, err
	}
	return countingDispatcher{opaqueDispatcher{d}, s.consults}, nil
}

type countingDispatcher struct {
	opaqueDispatcher
	consults *int64
}

func (c countingDispatcher) Next(v *engine.View) (engine.Chunk, bool) {
	*c.consults++
	return c.d.Next(v)
}
