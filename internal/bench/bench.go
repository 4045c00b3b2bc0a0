// Package bench holds the repo's performance-regression benchmark bodies
// as plain functions, so the same measurements can run two ways: as
// ordinary `go test -bench` benchmarks (the *_test.go wrappers in the
// engine and experiment packages) and from cmd/rumrbench, the harness
// that writes and checks BENCH_baseline.json without parsing `go test`
// output.
//
// Every body warms up once before b.ResetTimer, so the reported
// allocs/op is the steady-state cost (pools populated, slices grown),
// not the first-run setup — which is exactly what the committed baseline
// gates on. See the "Performance" section of EXPERIMENTS.md.
package bench

import (
	"context"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	rumrsched "rumr/internal/sched/rumr"
)

// Case names one benchmark body for the rumrbench harness.
type Case struct {
	Name string
	Func func(*testing.B)
}

// Cases returns every benchmark tracked by BENCH_baseline.json.
func Cases() []Case {
	return []Case{
		{Name: "EngineRun", Func: EngineRun},
		{Name: "EngineRunCounters", Func: EngineRunCounters},
		{Name: "EngineRunError", Func: EngineRunError},
		{Name: "EngineRunFaulty", Func: EngineRunFaulty},
		{Name: "SweepCell", Func: SweepCell},
		{Name: "MultiJobRun", Func: MultiJobRun},
		{Name: "MultiJobCell", Func: MultiJobCell},
	}
}

// fixedDemand is a resettable allocation-free dispatcher: it hands
// fixed-size chunks to the first idle worker until the workload drains.
// Using it (rather than a real scheduler) isolates the engine+des hot
// path, which is what the 0 allocs/op acceptance target is about.
type fixedDemand struct {
	total, size float64
	remaining   float64
}

func (d *fixedDemand) reset() { d.remaining = d.total }

func (d *fixedDemand) Next(v *engine.View) (engine.Chunk, bool) {
	if d.remaining <= 0 {
		return engine.Chunk{}, false
	}
	i := v.FirstIdle()
	if i < 0 {
		return engine.Chunk{}, false
	}
	size := d.size
	if size > d.remaining {
		size = d.remaining
	}
	d.remaining -= size
	return engine.Chunk{Worker: i, Size: size}, true
}

func enginePlatform() *platform.Platform {
	return platform.Homogeneous(20, 1, 30, 0.3, 0.3)
}

// AlgoCounters is one algorithm's engine hot-path telemetry over the
// counter report's central configuration.
type AlgoCounters struct {
	Algorithm string
	Runs      int64 // simulated runs behind the counters (reps × errors)
	Counters  engine.Counters
}

// CounterReport runs each standard algorithm alone on the paper's central
// configuration (N=20, r=1.5, cLat=nLat=0.3, err=0.3, 10 repetitions) and
// returns its engine counters — the per-algorithm breakdown behind
// `rumrbench -counters` and the EXPERIMENTS.md "where does the SweepCell
// time go" table. One algorithm per cell keeps attribution exact: every
// counter in a row was accumulated by that scheduler's runs only.
func CounterReport(ctx context.Context) ([]AlgoCounters, error) {
	g := experiment.Grid{
		Ns:       []int{20},
		Rs:       []float64{1.5},
		CLats:    []float64{0.3},
		NLats:    []float64{0.3},
		Errors:   []float64{0.3},
		Reps:     10,
		Total:    1000,
		BaseSeed: 2003,
	}
	cfg := g.Configs()[0]
	var out []AlgoCounters
	for _, a := range experiment.StandardAlgorithms() {
		r := &experiment.Runner{Algorithms: []sched.Scheduler{a}}
		_, ctrs, err := r.ComputeConfig(ctx, g, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AlgoCounters{
			Algorithm: a.Name(),
			Runs:      int64(g.Reps * len(g.Errors)),
			Counters:  ctrs.Engine,
		})
	}
	return out, nil
}

// EngineRun measures one fault-free simulated run — the unit of work a
// sweep multiplies by millions — on the paper's central platform
// (N=20, r=1.5), 200 chunks per run. Steady state must be 0 allocs/op.
func EngineRun(b *testing.B) {
	p := enginePlatform()
	d := &fixedDemand{total: 1000, size: 5}
	run := func() {
		d.reset()
		if _, err := engine.Run(p, d, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm pools and grow slices outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// EngineRunCounters is EngineRun with the hot-path telemetry counters
// enabled. Counter accumulation is plain integer adds on caller-owned
// state, so this must also be 0 allocs/op — the baseline entry gates
// instrumentation from ever growing an allocation.
func EngineRunCounters(b *testing.B) {
	p := enginePlatform()
	d := &fixedDemand{total: 1000, size: 5}
	var ctrs engine.Counters
	run := func() {
		d.reset()
		if _, err := engine.Run(p, d, engine.Options{Counters: &ctrs}); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm pools and grow slices outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if ctrs.EventsPopped == 0 {
		b.Fatal("counters stayed zero with instrumentation enabled")
	}
}

// EngineRunError is EngineRun with truncated-normal perturbation on
// every transfer and computation — the configuration the paper's sweeps
// actually run, and the benchmark that exercises the rng Normal sampler
// (two draws per chunk). It pins the cost of an error draw on the hot
// path and must stay 0 allocs/op.
func EngineRunError(b *testing.B) {
	p := enginePlatform()
	d := &fixedDemand{total: 1000, size: 5}
	src := rng.New(2003)
	opts := engine.Options{
		CommModel: perferr.NewTruncNormal(0.3, src.Split()),
		CompModel: perferr.NewTruncNormal(0.3, src.Split()),
	}
	run := func() {
		d.reset()
		if _, err := engine.Run(p, d, opts); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm pools and grow slices outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// EngineRunFaulty measures a run with crashes, rejoins and recovery
// timeouts active — the path that schedules (and lazily cancels) a
// timeout event per chunk, exercising the des queue's cancelled-event
// compaction.
func EngineRunFaulty(b *testing.B) {
	p := enginePlatform()
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 5, Worker: 2, Kind: fault.Crash},
		{Time: 8, Worker: 11, Kind: fault.Crash},
		{Time: 40, Worker: 2, Kind: fault.Rejoin},
		{Time: 60, Worker: 11, Kind: fault.Rejoin},
	}}
	rec := fault.Recovery{Enabled: true, TimeoutFactor: 3, TimeoutSlack: 1}
	d := &fixedDemand{total: 1000, size: 5}
	run := func() {
		d.reset()
		res, err := engine.Run(p, d, engine.Options{Faults: faults, Recovery: rec})
		if err != nil {
			b.Fatal(err)
		}
		if res.LostWork != 0 {
			b.Fatalf("recovery left %g units lost", res.LostWork)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// SweepCell measures one sweep cell the way the paper's tables consume
// them: all seven standard algorithms on one (configuration, error)
// point for the paper's repetition count, through the batched
// ComputeCellInto core that Sweep and the shard worker drive. The
// CellState and destination block are reused across iterations, so the
// measurement is the steady state the sweep loop actually runs at —
// platform pooled, plans memoized, dispatcher prototypes reset instead
// of reconstructed. Steady state must be 0 allocs/op; the >=3x
// throughput target in BENCH_baseline.json refers to this benchmark.
func SweepCell(b *testing.B) {
	g := experiment.Grid{
		Ns:       []int{20},
		Rs:       []float64{1.5},
		CLats:    []float64{0.3},
		NLats:    []float64{0.3},
		Errors:   []float64{0.3},
		Reps:     10,
		Total:    1000,
		BaseSeed: 2003,
	}
	cfg := g.Configs()[0]
	r := &experiment.Runner{Algorithms: experiment.StandardAlgorithms(), Workers: 1}
	cs := experiment.NewCellState()
	dst := experiment.NewCellBlock(len(g.Errors), len(r.Algorithms))
	ctx := context.Background()
	run := func() {
		if err := r.ComputeCellInto(ctx, g, cfg, cs, dst); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// MultiJobRun measures one four-job contended run through the pooled
// RunMulti path — weighted link sharing, staggered arrivals, the
// caller-owned JobResults buffer and hot-path counters enabled. This is
// the unit the multi-job sweeps multiply; steady state must be
// 0 allocs/op (the pre-optimization path allocated ~670 times per run).
func MultiJobRun(b *testing.B) {
	p := enginePlatform()
	const nJobs = 4
	ds := make([]*fixedDemand, nJobs)
	jobs := make([]engine.Job, nJobs)
	for j := range jobs {
		ds[j] = &fixedDemand{total: 250, size: 5}
		jobs[j] = engine.Job{
			Arrival:    float64(j) * 4,
			Priority:   nJobs - 1 - j,
			Weight:     float64(j + 1),
			Total:      250,
			Dispatcher: ds[j],
		}
	}
	var ctrs engine.Counters
	opts := engine.MultiOptions{
		Policy:     engine.WeightedShare(),
		Counters:   &ctrs,
		JobResults: make([]engine.JobResult, 0, nJobs),
	}
	run := func() {
		for _, d := range ds {
			d.reset()
		}
		if _, err := engine.RunMulti(p, jobs, opts); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the pool and grow slices outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if ctrs.EventsPopped == 0 {
		b.Fatal("counters stayed zero with instrumentation enabled")
	}
}

// MultiJobCell measures one multi-job sweep cell the way MultiJob
// consumes it: all repetitions of one (policy, arrival rate) point for
// the RUMR/Factoring/MI(1) trio on the default multi-job grid, through
// the batched ComputeMultiJobCellInto core. The MultiCellState and
// destination block are reused across iterations, so the measurement is
// the sweep loop's steady state — platform pooled, dispatcher prototypes
// Reset instead of reconstructed, error streams reseeded in place.
// Steady state must be 0 allocs/op; the >=3x multi-job throughput target
// in BENCH_baseline.json refers to this benchmark.
func MultiJobCell(b *testing.B) {
	g := experiment.DefaultMultiJobGrid()
	g.ArrivalRates = []float64{0.02}
	g.Policies = []string{"weighted"}
	r := &experiment.Runner{Algorithms: []sched.Scheduler{
		rumrsched.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1},
	}, Workers: 1}
	pol := engine.WeightedShare()
	cs := experiment.NewMultiCellState()
	dst := experiment.NewCellBlock(experiment.MultiCellRows, len(r.Algorithms))
	ctx := context.Background()
	run := func() {
		if err := r.ComputeMultiJobCellInto(ctx, g, pol, g.ArrivalRates[0], cs, dst); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
