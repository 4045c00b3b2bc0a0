package dlt

import (
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/engine"
	"rumr/internal/fault"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/mi"
)

func TestEqualFinishSumsToTotal(t *testing.T) {
	p := platform.Homogeneous(5, 1, 10, 0, 0)
	chunks, err := EqualFinish(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range chunks {
		sum += c
	}
	if math.Abs(sum-1000) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	// Homogeneous: strictly decreasing across workers.
	for i := 1; i < len(chunks); i++ {
		if chunks[i] >= chunks[i-1] {
			t.Fatalf("chunks not decreasing: %v", chunks)
		}
	}
}

func TestEqualFinishMatchesMI1(t *testing.T) {
	// The MI planner with one installment solves the same system through
	// Gaussian elimination; the closed-form recursion must agree.
	p := platform.Homogeneous(6, 1, 9, 0, 0)
	pr := &sched.Problem{Platform: p, Total: 700, MinUnit: 1}
	plan, err := mi.Build(pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := EqualFinish(p, 700)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if math.Abs(chunks[i]-plan.Sizes[0][i]) > 1e-6 {
			t.Fatalf("worker %d: closed form %v vs LU %v", i, chunks[i], plan.Sizes[0][i])
		}
	}
	mk, err := EqualFinishMakespan(p, 700)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mk-plan.Predicted) > 1e-6 {
		t.Fatalf("makespan %v vs MI-1 prediction %v", mk, plan.Predicted)
	}
}

func TestEqualFinishHeterogeneous(t *testing.T) {
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 2, B: 20}, {S: 1, B: 10}, {S: 0.5, B: 40},
	}}
	chunks, err := EqualFinish(p, 300)
	if err != nil {
		t.Fatal(err)
	}
	// All workers finish together: cumulative transfer + own compute
	// equal across workers.
	finish := make([]float64, 3)
	arrive := 0.0
	for i, c := range chunks {
		arrive += c / p.Workers[i].B
		finish[i] = arrive + c/p.Workers[i].S
	}
	for i := 1; i < 3; i++ {
		if math.Abs(finish[i]-finish[0]) > 1e-9 {
			t.Fatalf("finish times differ: %v", finish)
		}
	}
}

func TestEqualFinishValidation(t *testing.T) {
	if _, err := EqualFinish(&platform.Platform{}, 100); err == nil {
		t.Fatal("empty platform accepted")
	}
	p := platform.Homogeneous(2, 1, 2, 0, 0)
	if _, err := EqualFinish(p, 0); err == nil {
		t.Fatal("zero workload accepted")
	}
}

func TestLowerBoundComputeDominates(t *testing.T) {
	// Fast links: the compute bound W/(N*S) dominates.
	p := platform.Homogeneous(10, 1, 1000, 0, 0)
	if got := LowerBound(p, 1000); math.Abs(got-100) > 1e-12 {
		t.Fatalf("bound = %v, want 100", got)
	}
}

func TestLowerBoundPortDominates(t *testing.T) {
	// Slow links: the port bound W/maxB dominates.
	p := platform.Homogeneous(10, 1, 2, 0, 0)
	if got := LowerBound(p, 1000); math.Abs(got-500) > 1e-12 {
		t.Fatalf("bound = %v, want 500", got)
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if LowerBound(&platform.Platform{}, 100) != 0 {
		t.Fatal("empty platform bound should be 0")
	}
}

// Property: the equal-finish schedule, when actually simulated on a
// latency-free platform, achieves its predicted makespan and beats no
// lower bound.
func TestEqualFinishSimulates(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(10)
		p := platform.Homogeneous(n, src.Uniform(0.5, 2), float64(n)*src.Uniform(1.2, 3), 0, 0)
		total := src.Uniform(100, 2000)
		chunks, err := EqualFinish(p, total)
		if err != nil {
			return false
		}
		var plan []engine.Chunk
		for i, c := range chunks {
			plan = append(plan, engine.Chunk{Worker: i, Size: c})
		}
		res, err := engine.Run(p, sched.NewStatic(plan, false), engine.Options{})
		if err != nil {
			return false
		}
		want, err := EqualFinishMakespan(p, total)
		if err != nil {
			return false
		}
		if math.Abs(res.Makespan-want) > 1e-6*want {
			return false
		}
		return res.Makespan >= LowerBound(p, total)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundWithFaults(t *testing.T) {
	p := platform.Homogeneous(4, 1, 10, 0, 0)
	const total = 100.0
	static := LowerBound(p, total) // compute bound: 100/4 = 25

	// Empty or nil schedules change nothing.
	if got := LowerBoundWithFaults(p, total, nil); got != static {
		t.Fatalf("nil schedule bound = %g, want %g", got, static)
	}
	if got := LowerBoundWithFaults(p, total, &fault.Schedule{}); got != static {
		t.Fatalf("empty schedule bound = %g, want %g", got, static)
	}

	// Two of four workers dead from t=0: capacity halves, bound doubles.
	s := &fault.Schedule{Events: []fault.Event{
		{Time: 0, Worker: 0, Kind: fault.Crash},
		{Time: 0, Worker: 1, Kind: fault.Crash},
	}}
	if got := LowerBoundWithFaults(p, total, s); math.Abs(got-50) > 1e-6 {
		t.Fatalf("half-capacity bound = %g, want 50", got)
	}

	// A crash after the fault-free bound has passed still delays the rest:
	// worker 0 down for good at t=10 removes its share of the tail.
	s2 := &fault.Schedule{Events: []fault.Event{
		{Time: 10, Worker: 0, Kind: fault.Crash},
	}}
	// capacity(T) = 10 + 3T for T >= 10; = total at T = 30.
	if got := LowerBoundWithFaults(p, total, s2); math.Abs(got-30) > 1e-6 {
		t.Fatalf("late-crash bound = %g, want 30", got)
	}

	// Crash-and-rejoin only subtracts the outage.
	s3 := &fault.Schedule{Events: []fault.Event{
		{Time: 10, Worker: 0, Kind: fault.Crash},
		{Time: 20, Worker: 0, Kind: fault.Rejoin},
	}}
	// capacity(T) = 4T - 10 for T >= 20; = total at T = 27.5.
	if got := LowerBoundWithFaults(p, total, s3); math.Abs(got-27.5) > 1e-6 {
		t.Fatalf("outage bound = %g, want 27.5", got)
	}

	// Total permanent failure: no finite fault-aware bound, fall back.
	s4 := &fault.Schedule{}
	for w := 0; w < 4; w++ {
		s4.Events = append(s4.Events, fault.Event{Time: 5, Worker: w, Kind: fault.Crash})
	}
	if got := LowerBoundWithFaults(p, total, s4); got != static {
		t.Fatalf("total-failure bound = %g, want static %g", got, static)
	}

	// The bound never drops below the static one.
	s5 := &fault.Schedule{Events: []fault.Event{{Time: 1e6, Worker: 0, Kind: fault.Crash}}}
	if got := LowerBoundWithFaults(p, total, s5); got < static {
		t.Fatalf("fault-aware bound %g below static %g", got, static)
	}
}
