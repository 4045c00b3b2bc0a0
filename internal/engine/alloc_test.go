package engine

import (
	"fmt"
	"math"
	"testing"

	"rumr/internal/des"
	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// The engine's hot-path benchmarks and their zero-alloc tests. Each pair
// calls one fixture, so plain `go test` fails on a new allocation in the
// exact body `go test -bench` measures. Every fixture runs on the paper's
// central platform (N=20, r=1.5, cLat=nLat=0.3).

// resetDemand hands fixed-size chunks to the first idle worker until its
// total drains. reset refills it, so one value drives many runs without
// allocating a fresh dispatcher per run.
type resetDemand struct {
	total, size, remaining float64
	consults               int64 // Next calls, across resets
}

func (d *resetDemand) reset() { d.remaining = d.total }

func (d *resetDemand) Next(v *View) (Chunk, bool) {
	d.consults++
	if d.remaining <= 0 {
		return Chunk{}, false
	}
	i := v.FirstIdle()
	if i < 0 {
		return Chunk{}, false
	}
	s := math.Min(d.size, d.remaining)
	d.remaining -= s
	return Chunk{Worker: i, Size: s}, true
}

func centralPlatform() *platform.Platform { return platform.Homogeneous(20, 1, 30, 0.3, 0.3) }

// singleRun returns one pooled run of 1000 units in 5-unit chunks (200
// chunks) under opts. It fails a run that loses work.
func singleRun(opts Options) func() error {
	p := centralPlatform()
	d := &resetDemand{total: 1000, size: 5}
	return func() error {
		d.reset()
		res, err := Run(p, d, opts)
		if err == nil && res.LostWork != 0 {
			err = fmt.Errorf("recovery left %g units lost", res.LostWork)
		}
		return err
	}
}

// errorOptions perturbs every transfer and computation with a truncated
// normal, as the paper's sweeps do: two error draws per chunk.
func errorOptions() Options {
	src := rng.New(2003)
	return Options{
		CommModel: perferr.NewTruncNormal(0.3, src.Split()),
		CompModel: perferr.NewTruncNormal(0.3, src.Split()),
	}
}

// faultyOptions crashes and rejoins two workers with recovery on, so a
// completion timeout is scheduled (and lazily cancelled) per chunk.
func faultyOptions() Options {
	return Options{
		Faults: &fault.Schedule{Events: []fault.Event{
			{Time: 5, Worker: 2, Kind: fault.Crash},
			{Time: 8, Worker: 11, Kind: fault.Crash},
			{Time: 40, Worker: 2, Kind: fault.Rejoin},
			{Time: 60, Worker: 11, Kind: fault.Rejoin},
		}},
		Recovery: fault.Recovery{Enabled: true, TimeoutFactor: 3},
	}
}

// multiJobRun returns one four-job contended RunMulti: staggered
// arrivals, priorities and weights under weighted link sharing, counters
// into ctrs and a caller-owned JobResults buffer. With withErrors every
// job also draws truncated-normal error on both legs.
func multiJobRun(ctrs *Counters, withErrors bool) (func() error, []*resetDemand) {
	p := centralPlatform()
	src := rng.New(42)
	const nJobs = 4
	ds := make([]*resetDemand, nJobs)
	jobs := make([]Job, nJobs)
	for j := range jobs {
		ds[j] = &resetDemand{total: 250, size: 5}
		jobs[j] = Job{
			Arrival:    float64(j) * 4,
			Priority:   nJobs - 1 - j,
			Weight:     float64(j + 1),
			Total:      250,
			Dispatcher: ds[j],
		}
		if withErrors {
			jobs[j].CommModel = perferr.NewTruncNormal(0.2, src.Split())
			jobs[j].CompModel = perferr.NewTruncNormal(0.2, src.Split())
		}
	}
	opts := MultiOptions{
		Policy:     WeightedShare(),
		Counters:   ctrs,
		JobResults: make([]JobResult, 0, nJobs),
	}
	return func() error {
		for _, d := range ds {
			d.reset()
		}
		_, err := RunMulti(p, jobs, opts)
		return err
	}, ds
}

// benchSteadyState times run after one warm-up run outside the timer, so
// allocs/op is the steady-state cost (pools populated, slices grown).
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

// assertZeroAlloc runs one warm-up run outside the measured region, then
// requires run to allocate nothing.
func assertZeroAlloc(t *testing.T, what string, run func() error) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	once := func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	once() // warm pools and grow slices outside the measured region
	if allocs := testing.AllocsPerRun(20, once); allocs > 0 {
		t.Fatalf("%s allocates %.1f times per run", what, allocs)
	}
}

// BenchmarkEngineRun is one fault-free run, the unit of work a sweep
// multiplies by millions: pooled run state, typed event queue and
// typed event payloads keep it at 0 allocs/op.
func BenchmarkEngineRun(b *testing.B) { benchSteadyState(b, singleRun(Options{})) }

// Run and RunMulti share one pool of run states, so a state that last
// hosted several jobs must come back clean and right-sized for a lone job:
// the single-job hot path stays allocation-free with multi-job runs
// interleaved between (and during warmup of) its pooled runs.
func TestSingleRunZeroAllocInterleavedWithMulti(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := centralPlatform()
	multiOnce := func() {
		_, err := RunMulti(p, []Job{
			{Total: 50, Dispatcher: &demandDispatcher{remaining: 50, size: 5}},
			{Total: 50, Arrival: 1, Dispatcher: &demandDispatcher{remaining: 50, size: 5}},
		}, MultiOptions{Policy: WeightedShare()})
		if err != nil {
			t.Fatal(err)
		}
	}
	run := singleRun(Options{})
	singleOnce := func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	singleOnce() // warm the run pool outside the measured region
	multiOnce()  // dirty whatever a buggy shared pool would share
	singleOnce()
	multiOnce()
	if allocs := testing.AllocsPerRun(10, singleOnce); allocs > 0 {
		t.Fatalf("single-job run allocates %.1f times per run after multi-job interleaving", allocs)
	}
}

// BenchmarkEngineRunCounters is EngineRun with the hot-path counters on.
// Accumulation is plain integer adds on caller-owned state, so it must
// stay at 0 allocs/op too.
func BenchmarkEngineRunCounters(b *testing.B) {
	var ctrs Counters
	benchSteadyState(b, singleRun(Options{Counters: &ctrs}))
	if ctrs.EventsPopped == 0 {
		b.Fatal("counters stayed zero with instrumentation enabled")
	}
}

func TestCountersZeroAlloc(t *testing.T) {
	var ctrs Counters
	assertZeroAlloc(t, "engine run with counters", singleRun(Options{Counters: &ctrs}))
	if ctrs.EventsPopped == 0 {
		t.Fatal("counters stayed zero")
	}
}

// BenchmarkEngineRunError pins the cost of the ziggurat error draws on
// the hot path.
func BenchmarkEngineRunError(b *testing.B) { benchSteadyState(b, singleRun(errorOptions())) }

func TestEngineRunErrorZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "engine run with error models", singleRun(errorOptions()))
}

// BenchmarkEngineRunFaulty covers the recovery path: crashes, rejoins
// and re-dispatch with completion timeouts (a cancel-heavy event queue).
func BenchmarkEngineRunFaulty(b *testing.B) { benchSteadyState(b, singleRun(faultyOptions())) }

func TestEngineRunFaultyZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "engine run with faults and recovery", singleRun(faultyOptions()))
}

// BenchmarkMultiJobRun is the unit the multi-job sweeps multiply.
func BenchmarkMultiJobRun(b *testing.B) {
	var ctrs Counters
	run, _ := multiJobRun(&ctrs, false)
	benchSteadyState(b, run)
	if ctrs.EventsPopped == 0 {
		b.Fatal("counters stayed zero with instrumentation enabled")
	}
}

// The test adds error models to the benchmark's run, so the draws are
// covered as well.
func TestRunMultiZeroAllocSteadyState(t *testing.T) {
	var ctrs Counters
	run, ds := multiJobRun(&ctrs, true)
	assertZeroAlloc(t, "multi-job run", run)
	if ctrs.EventsPushed == 0 || ctrs.EventsPopped == 0 {
		t.Fatalf("event counters stayed zero: %+v", ctrs)
	}
	// Every job's View aliases the engine's worker states: one
	// SyncViewCopies per consult, and nothing copied.
	var consults int64
	for _, d := range ds {
		consults += d.consults
	}
	if ctrs.SyncViewCopies == 0 || ctrs.SyncViewCopies != consults || ctrs.SyncViewBytes != 0 {
		t.Fatalf("syncView counters: %d copies, %d bytes for %d consults",
			ctrs.SyncViewCopies, ctrs.SyncViewBytes, consults)
	}
	if ctrs.TruncNormalDraws == 0 || ctrs.UniformDraws != 0 {
		t.Fatalf("draw counters misclassified: %+v", ctrs)
	}
}

// A cold core — a fresh run state, not one recycled through the pool —
// grows its chunk arena by slabs, so a long plan costs O(log n)
// allocations rather than one per chunk. 1,000 one-unit chunks dealt
// round-robin over the central platform's 20 workers.
func TestColdCoreArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := centralPlatform()
	plan := make([]Chunk, 1000)
	for i := range plan {
		plan[i] = Chunk{Worker: i % p.N(), Size: 1}
	}
	d := &listDispatcher{plan: plan}
	jobs := []Job{{Total: float64(len(plan)), Dispatcher: d}}
	allocs := testing.AllocsPerRun(5, func() {
		d.pos = 0
		mr := &multiRun{sim: des.New()}
		if err := mr.exec(p, jobs, MultiOptions{}, nil, fault.Recovery{}); err != nil {
			t.Fatal(err)
		}
		if mr.chunks != len(plan) {
			t.Fatalf("dispatched %d chunks, want %d", mr.chunks, len(plan))
		}
		mr.release()
	})
	if allocs >= 100 {
		t.Fatalf("cold-core run of %d chunks allocates %.0f times, want < 100", len(plan), allocs)
	}
	t.Logf("cold-core run of %d chunks: %.0f allocations", len(plan), allocs)
}
