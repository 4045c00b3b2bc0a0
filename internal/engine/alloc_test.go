package engine

import (
	"testing"

	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// Test twins of the EngineRunError and EngineRunFaulty bodies of
// internal/bench: the same platform, demand, error models and fault
// schedule, so plain `go test` fails on a new allocation in either
// without the bench harness.

// assertZeroAlloc runs one warm-up run outside the measured region, then
// requires run to allocate nothing.
func assertZeroAlloc(t *testing.T, what string, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	run() // warm pools and grow slices outside the measured region
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("%s allocates %.1f times per run", what, allocs)
	}
}

// Truncated-normal perturbation on every transfer and computation: the
// two error draws per chunk must not allocate.
func TestEngineRunErrorZeroAlloc(t *testing.T) {
	p := platform.Homogeneous(20, 1, 30, 0.3, 0.3)
	d := &resetDemand{total: 1000}
	d.size = 5
	src := rng.New(2003)
	opts := Options{
		CommModel: perferr.NewTruncNormal(0.3, src.Split()),
		CompModel: perferr.NewTruncNormal(0.3, src.Split()),
	}
	assertZeroAlloc(t, "engine run with error models", func() {
		d.reset()
		if _, err := Run(p, d, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// Crashes, rejoins and recovery timeouts: the timeout event scheduled
// (and lazily cancelled) per chunk must not allocate.
func TestEngineRunFaultyZeroAlloc(t *testing.T) {
	p := platform.Homogeneous(20, 1, 30, 0.3, 0.3)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 5, Worker: 2, Kind: fault.Crash},
		{Time: 8, Worker: 11, Kind: fault.Crash},
		{Time: 40, Worker: 2, Kind: fault.Rejoin},
		{Time: 60, Worker: 11, Kind: fault.Rejoin},
	}}
	opts := Options{Faults: faults, Recovery: fault.Recovery{Enabled: true, TimeoutFactor: 3, TimeoutSlack: 1}}
	d := &resetDemand{total: 1000}
	d.size = 5
	assertZeroAlloc(t, "engine run with faults and recovery", func() {
		d.reset()
		res, err := Run(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.LostWork != 0 {
			t.Fatalf("recovery left %g units lost", res.LostWork)
		}
	})
}
