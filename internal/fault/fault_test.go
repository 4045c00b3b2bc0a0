package fault

import (
	"math"
	"reflect"
	"testing"

	"rumr/internal/rng"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"valid crash", Event{Time: 1, Worker: 0, Kind: Crash}, true},
		{"worker out of range", Event{Time: 1, Worker: 3, Kind: Crash}, false},
		{"negative worker", Event{Time: 1, Worker: -1, Kind: Crash}, false},
		{"negative time", Event{Time: -1, Worker: 0, Kind: Crash}, false},
		{"NaN time", Event{Time: math.NaN(), Worker: 0, Kind: Crash}, false},
		{"unknown kind", Event{Time: 1, Worker: 0, Kind: numKinds}, false},
		{"slow factor 1", Event{Time: 1, Worker: 0, Kind: SlowStart, Factor: 1}, false},
		{"slow factor inf", Event{Time: 1, Worker: 0, Kind: SlowStart, Factor: math.Inf(1)}, false},
		{"slow factor 2", Event{Time: 1, Worker: 0, Kind: SlowStart, Factor: 2}, true},
	}
	for _, tc := range cases {
		s := &Schedule{Events: []Event{tc.ev}}
		if err := s.Validate(3); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(3); err != nil {
		t.Errorf("nil schedule: %v", err)
	}
}

func TestSortCanonicalOrder(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Time: 2, Worker: 1, Kind: Crash},
		{Time: 1, Worker: 2, Kind: LinkUp},
		{Time: 1, Worker: 0, Kind: Crash},
		{Time: 1, Worker: 0, Kind: Rejoin},
	}}
	s.Sort()
	want := []Event{
		{Time: 1, Worker: 0, Kind: Crash},
		{Time: 1, Worker: 0, Kind: Rejoin},
		{Time: 1, Worker: 2, Kind: LinkUp},
		{Time: 2, Worker: 1, Kind: Crash},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("sorted = %+v", s.Events)
	}
}

func TestUptime(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Time: 2, Worker: 0, Kind: Crash},
		{Time: 5, Worker: 0, Kind: Rejoin},
		{Time: 3, Worker: 1, Kind: Crash},
		// worker 1 never rejoins; worker 2 untouched.
	}}
	cases := []struct {
		w       int
		horizon float64
		want    float64
	}{
		{0, 10, 7}, // down for [2,5]
		{1, 10, 3},
		{2, 10, 10},
		{0, 4, 2}, // rejoin after the horizon
		{0, 0, 0},
	}
	for _, tc := range cases {
		if got := s.Uptime(tc.w, tc.horizon); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Uptime(%d, %g) = %g, want %g", tc.w, tc.horizon, got, tc.want)
		}
	}
	// Outages and slowdowns do not count as downtime.
	s2 := &Schedule{Events: []Event{
		{Time: 1, Worker: 0, Kind: LinkDown},
		{Time: 2, Worker: 0, Kind: LinkUp},
		{Time: 3, Worker: 0, Kind: SlowStart, Factor: 4},
	}}
	if got := s2.Uptime(0, 10); got != 10 {
		t.Errorf("outage/slowdown uptime = %g, want 10", got)
	}
}

func TestTimeoutForBackoff(t *testing.T) {
	r := Recovery{Enabled: true, TimeoutFactor: 3}
	if got := r.TimeoutFor(2, 0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("attempt 0 timeout = %g, want 6", got)
	}
	// Doubles per attempt.
	if got := r.TimeoutFor(2, 2); math.Abs(got-24) > 1e-12 {
		t.Fatalf("attempt 2 timeout = %g, want 24", got)
	}
	// Monotone, no overflow at absurd attempt counts.
	if got := r.TimeoutFor(2, 1000); math.IsInf(got, 0) || got < r.TimeoutFor(2, 30) {
		t.Fatalf("attempt 1000 timeout = %g", got)
	}
	if got := (Recovery{}).TimeoutFor(2, 0); got != 0 {
		t.Fatalf("disabled timeout = %g, want 0", got)
	}
}

func TestScenarioGenerateDeterministic(t *testing.T) {
	sc := Scenario{
		Horizon: 100, CrashProb: 0.5, RejoinProb: 0.5, RejoinDelayMax: 10,
		CorrelatedProb: 0.3, OutageProb: 0.4, OutageMin: 1, OutageMax: 5,
		StragglerProb: 0.4, SlowMin: 2, SlowMax: 8, UnboundedProb: 0.2,
	}
	a := sc.Generate(10, rng.New(42))
	b := sc.Generate(10, rng.New(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := sc.Generate(10, rng.New(43))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical non-trivial schedules")
	}
	if a.Empty() {
		t.Fatal("scenario with high rates generated no faults")
	}
	if err := a.Validate(10); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

// TestScenarioSurvivorGuarantee: without AllowTotalFailure, at every
// instant at least one worker is either up or destined to rejoin — so a
// recovering engine can always finish.
func TestScenarioSurvivorGuarantee(t *testing.T) {
	sc := Scenario{Horizon: 50, CrashProb: 1, RejoinProb: 0} // kill everyone
	for seed := uint64(0); seed < 50; seed++ {
		s := sc.Generate(6, rng.New(seed))
		survivors := 0
		for w := 0; w < 6; w++ {
			// A worker survives if it is up at (past) the horizon.
			if s.Uptime(w, math.Inf(1)) == math.Inf(1) {
				survivors++
			}
		}
		if survivors == 0 {
			t.Fatalf("seed %d: no surviving worker in %+v", seed, s.Events)
		}
	}
	// With AllowTotalFailure the same scenario kills all workers for some
	// seed.
	sc.AllowTotalFailure = true
	total := false
	for seed := uint64(0); seed < 50 && !total; seed++ {
		s := sc.Generate(6, rng.New(seed))
		survivors := 0
		for w := 0; w < 6; w++ {
			if s.Uptime(w, math.Inf(1)) == math.Inf(1) {
				survivors++
			}
		}
		total = survivors == 0
	}
	if !total {
		t.Fatal("AllowTotalFailure never produced a total failure")
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if numKinds.String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}
