package selfsched

import (
	"math"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

func TestUnitChunks(t *testing.T) {
	pr := &sched.Problem{
		Platform: platform.Homogeneous(4, 1, 8, 0.05, 0.05),
		Total:    100,
		MinUnit:  1,
	}
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 100 {
		t.Fatalf("chunks = %d, want 100 unit chunks", res.Chunks)
	}
	if math.Abs(res.DispatchedWork-100) > 1e-9 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
	if err := res.Trace.Validate(pr.Platform, 100); err != nil {
		t.Fatal(err)
	}
}

func TestCustomQuantum(t *testing.T) {
	pr := &sched.Problem{
		Platform: platform.Homogeneous(4, 1, 8, 0.05, 0.05),
		Total:    100,
		MinUnit:  1,
	}
	d, err := Scheduler{Quantum: 10}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", res.Chunks)
	}
}

func TestName(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		want string
	}{
		{Scheduler{}, "SelfSched"},
		{Scheduler{Quantum: 64}, "SelfSched-64"},
		{Scheduler{Quantum: 0.5}, "SelfSched-0.5"},
	} {
		if got := c.s.Name(); got != c.want {
			t.Fatalf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestInvalidProblemRejected(t *testing.T) {
	if _, err := (Scheduler{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// TestInvalidQuantumRejected: a negative or non-finite quantum
// has no name of its own, so it is rejected rather than run under
// another scheduler's name.
func TestInvalidQuantumRejected(t *testing.T) {
	pr := &sched.Problem{Platform: platform.Homogeneous(4, 1, 8, 0.05, 0.05), Total: 100, MinUnit: 1}
	for _, q := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := (Scheduler{Quantum: q}).NewDispatcher(pr); err == nil {
			t.Fatalf("quantum %g accepted", q)
		}
	}
}
