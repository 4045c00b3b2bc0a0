package experiment

import (
	"math"
	"reflect"
	"testing"

	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/sched/rumr"
)

func resilienceTestGrid() ResilienceGrid {
	return ResilienceGrid{
		Config:     Config{N: 6, R: 1.5, CLat: 0.1, NLat: 0.1},
		CrashRates: []float64{0, 0.4},
		RejoinProb: 0.5,
		Error:      0.1,
		Reps:       3,
		Total:      500,
		BaseSeed:   17,
	}
}

// TestResilienceSweep drives a faulty grid through the parallel pool with
// a shared metrics collector — run under -race this exercises the
// concurrent engine/collector paths the resilience artifact uses.
func TestResilienceSweep(t *testing.T) {
	mc := metrics.New()
	r := &Runner{
		Algorithms: []sched.Scheduler{rumr.Scheduler{}, rumr.FaultTolerant{}},
		Workers:    4,
		Metrics:    mc,
	}
	res, err := r.Resilience(resilienceTestGrid())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Algorithms; got[0] != "RUMR" || got[1] != "RUMR-ft" {
		t.Fatalf("algorithms = %v", got)
	}
	for ai := range res.Algorithms {
		if res.Baseline[ai] <= 0 || math.IsNaN(res.Baseline[ai]) {
			t.Fatalf("baseline[%d] = %g", ai, res.Baseline[ai])
		}
		// Crash rate 0 is the fault-free regime: no degradation, no
		// re-dispatches, full completion.
		if d := res.Degradation[0][ai]; math.Abs(d-1) > 1e-12 {
			t.Errorf("%s: fault-free degradation = %g, want 1", res.Algorithms[ai], d)
		}
		if rd := res.Redispatches[0][ai]; rd != 0 {
			t.Errorf("%s: fault-free redispatches = %g", res.Algorithms[ai], rd)
		}
		for ri := range res.Grid.CrashRates {
			if c := res.Completion[ri][ai]; math.Abs(c-1) > 1e-9 {
				t.Errorf("%s rate %g: completion = %g, want 1 (recovery enabled)",
					res.Algorithms[ai], res.Grid.CrashRates[ri], c)
			}
			if m := res.Mean[ri][ai]; m <= 0 || math.IsNaN(m) {
				t.Errorf("%s rate %g: mean makespan = %g", res.Algorithms[ai], res.Grid.CrashRates[ri], m)
			}
		}
		// Crashes cannot speed the run up on average.
		if res.Degradation[1][ai] < 1-1e-9 {
			t.Errorf("%s: degradation under crashes = %g < 1", res.Algorithms[ai], res.Degradation[1][ai])
		}
	}
	if snap := mc.Snapshot(); snap.Simulations == 0 {
		t.Error("shared collector saw no simulations")
	}
}

// TestResilienceDeterministic: same grid, same seed, different pool widths
// — identical aggregates.
func TestResilienceDeterministic(t *testing.T) {
	g := resilienceTestGrid()
	run := func(workers int) *ResilienceResults {
		r := &Runner{
			Algorithms: []sched.Scheduler{rumr.Scheduler{}, rumr.FaultTolerant{}},
			Workers:    workers,
		}
		res, err := r.Resilience(g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("resilience sweep depends on pool width:\n%+v\nvs\n%+v", a, b)
	}
}

func TestResilienceRejectsEmpty(t *testing.T) {
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}}}
	if _, err := r.Resilience(ResilienceGrid{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := (&Runner{}).Resilience(resilienceTestGrid()); err == nil {
		t.Fatal("no algorithms accepted")
	}
}

func TestResilienceGridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ResilienceGrid)
	}{
		{"no crash rates", func(g *ResilienceGrid) { g.CrashRates = nil }},
		{"negative crash rate", func(g *ResilienceGrid) { g.CrashRates = []float64{0, -0.1} }},
		{"crash rate above 1", func(g *ResilienceGrid) { g.CrashRates = []float64{1.5} }},
		{"NaN crash rate", func(g *ResilienceGrid) { g.CrashRates = []float64{math.NaN()} }},
		{"negative rejoin", func(g *ResilienceGrid) { g.RejoinProb = -0.5 }},
		{"rejoin above 1", func(g *ResilienceGrid) { g.RejoinProb = 2 }},
		{"NaN rejoin", func(g *ResilienceGrid) { g.RejoinProb = math.NaN() }},
		{"negative error", func(g *ResilienceGrid) { g.Error = -0.1 }},
		{"infinite error", func(g *ResilienceGrid) { g.Error = math.Inf(1) }},
		{"negative horizon", func(g *ResilienceGrid) { g.Horizon = -1 }},
		{"NaN horizon", func(g *ResilienceGrid) { g.Horizon = math.NaN() }},
		{"no reps", func(g *ResilienceGrid) { g.Reps = 0 }},
		{"no total", func(g *ResilienceGrid) { g.Total = 0 }},
		{"infinite total", func(g *ResilienceGrid) { g.Total = math.Inf(1) }},
		{"negative latency", func(g *ResilienceGrid) { g.Config.CLat = -1 }},
	}
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := resilienceTestGrid()
			tc.mutate(&g)
			if err := g.Validate(); err == nil {
				t.Fatal("Validate accepted a degenerate grid")
			}
			if _, err := r.Resilience(g); err == nil {
				t.Fatal("degenerate grid accepted")
			}
		})
	}
	if err := resilienceTestGrid().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	if err := DefaultResilienceGrid().Validate(); err != nil {
		t.Fatalf("default grid rejected: %v", err)
	}
}

// The resilience and hetero studies feed the engine's hot-path counters
// into Metrics like the paper sweep and the multi-job study do, so
// /metrics explains their event volume and re-sends.
func TestStudiesReportEngineCounters(t *testing.T) {
	for _, model := range []ErrorModelKind{NormalError, UniformError} {
		mc := metrics.New()
		r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}, rumr.FaultTolerant{}}, ErrorModel: model, Metrics: mc}
		if _, err := r.Resilience(resilienceTestGrid()); err != nil {
			t.Fatal(err)
		}
		e := mc.Snapshot().Engine
		draws := e.TruncNormalDraws + e.UniformDraws
		if e.EventsPushed == 0 || draws == 0 || e.Redispatches == 0 {
			t.Errorf("resilience model=%d: engine counters %+v, want events, draws and re-sends", model, e)
		}

		mc = metrics.New()
		r = &Runner{Algorithms: heteroAlgorithms(), ErrorModel: model, Metrics: mc}
		if _, err := r.Hetero(smallHeteroGrid()); err != nil {
			t.Fatal(err)
		}
		e = mc.Snapshot().Engine
		draws = e.TruncNormalDraws + e.UniformDraws
		if e.EventsPushed == 0 || draws == 0 {
			t.Errorf("hetero model=%d: engine counters %+v, want events and draws", model, e)
		}
	}
}
