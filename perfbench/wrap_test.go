package main

import (
	"math"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/rumr"
)

func testAlgorithms() []sched.Scheduler {
	return append(experiment.StandardAlgorithms(), rumr.FaultTolerant{}, rumr.Adaptive{})
}

// runSingle runs one seeded single-job simulation, with the dispatcher
// and models wrapped when timed.
func runSingle(t *testing.T, algo sched.Scheduler, faults *fault.Schedule, timed bool) float64 {
	t.Helper()
	p := experiment.Config{N: 20, R: 1.8, CLat: 0.3, NLat: 0.9}.Platform()
	d, err := algo.NewDispatcher(&sched.Problem{Platform: p, Total: 1000, KnownError: 0.3, MinUnit: 1})
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	src := rng.NewFrom(11, 22)
	var comm, comp perferr.Model = perferr.NewTruncNormal(0.3, src.Split()), perferr.NewTruncNormal(0.3, src.Split())
	var next, draw callTimes
	if timed {
		d = timeDispatcher(d, &next)
		comm, comp = timeModel(comm, &draw), timeModel(comp, &draw)
	}
	opts := engine.Options{CommModel: comm, CompModel: comp}
	if faults != nil {
		opts.Faults, opts.Recovery = faults, fault.Recovery{Enabled: true, TimeoutFactor: 4}
	}
	out, err := engine.Run(p, d, opts)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	if timed && (next.Calls == 0 || draw.Calls == 0) {
		t.Fatalf("%s: wrappers timed %d Next calls and %d draws", algo.Name(), next.Calls, draw.Calls)
	}
	return out.Makespan
}

func TestTimingWrappersKeepSingleJobMakespans(t *testing.T) {
	sc := fault.Scenario{Horizon: 400, CrashProb: 0.4, RejoinProb: 0.5, RejoinDelayMin: 40, RejoinDelayMax: 200}
	faults := sc.Generate(20, rng.NewFrom(5))
	for _, algo := range testAlgorithms() {
		for _, f := range []*fault.Schedule{nil, faults} {
			plain, timed := runSingle(t, algo, f, false), runSingle(t, algo, f, true)
			if math.Float64bits(plain) != math.Float64bits(timed) {
				t.Errorf("%s (faults %v): makespan %v plain, %v timed", algo.Name(), f != nil, plain, timed)
			}
		}
	}
}

func TestTimingWrappersKeepMultiJobMakespans(t *testing.T) {
	g := multiJobGrid(defaultSeed)
	p := g.Config.Platform()
	pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: g.Error, MinUnit: 1}
	for _, algo := range testAlgorithms() {
		for _, pol := range engine.LinkPolicies() {
			x, err := newReplayer(p, algo, pr, g.Error, g.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			arr := jobArrivals(g, 0.02, 3)
			// replay itself fails when the timed run's makespan differs.
			if _, err := x.replay(nil, true, func(ctr *engine.Counters, timed bool) (float64, int64, error) {
				return x.multi(arr, jobSeed(g, 0.02, 3), pol, g.Total, ctr, timed)
			}); err != nil {
				t.Errorf("%s under %s: %v", algo.Name(), pol.Name(), err)
			}
			if x.next.Calls == 0 || x.draw.Calls == 0 {
				t.Errorf("%s under %s: wrappers timed %d Next calls and %d draws", algo.Name(), pol.Name(), x.next.Calls, x.draw.Calls)
			}
		}
	}
}

// TestTimedDispatcherForwardsExactlyTheCapabilities checks that the
// wrapper implements each optional engine interface exactly when the
// wrapped dispatcher does, so the engine takes the same paths.
func TestTimedDispatcherForwardsExactlyTheCapabilities(t *testing.T) {
	p := experiment.Config{N: 10, R: 1.5, CLat: 0.1, NLat: 0.1}.Platform()
	pr := &sched.Problem{Platform: p, Total: 1000, KnownError: 0.2, MinUnit: 1}
	for _, algo := range testAlgorithms() {
		d, err := algo.NewDispatcher(pr)
		if err != nil {
			t.Fatal(err)
		}
		w := timeDispatcher(d, &callTimes{})
		_, o1 := d.(engine.Observer)
		_, o2 := w.(engine.Observer)
		_, f1 := d.(engine.FaultAware)
		_, f2 := w.(engine.FaultAware)
		_, e1 := d.(engine.ExhaustedDispatcher)
		_, e2 := w.(engine.ExhaustedDispatcher)
		if o1 != o2 || f1 != f2 || e1 != e2 {
			t.Errorf("%s: observer %v→%v, fault-aware %v→%v, exhausted %v→%v", algo.Name(), o1, o2, f1, f2, e1, e2)
		}
	}
}

func TestTimeModelLeavesPerfectPredictionAlone(t *testing.T) {
	var ct callTimes
	if m := timeModel(perferr.Perfect{}, &ct); m != (perferr.Perfect{}) {
		t.Fatalf("perfect model wrapped as %T", m)
	}
}
