package mi

import (
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

func paperProblem(n int, r float64) *sched.Problem {
	// MI plans ignore latencies; the platform used for *planning* checks
	// is latency-free so predictions are exact.
	return &sched.Problem{
		Platform: platform.Homogeneous(n, 1, r*float64(n), 0, 0),
		Total:    1000,
		MinUnit:  1,
	}
}

func TestSingleInstallmentEqualFinish(t *testing.T) {
	pr := paperProblem(5, 1.5)
	plan, err := Build(pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Installments != 1 {
		t.Fatalf("installments = %d", plan.Installments)
	}
	if math.Abs(plan.Total()-1000) > 1e-6 {
		t.Fatalf("total = %v", plan.Total())
	}
	// Under the latency-free model, the simulated makespan equals the
	// predicted one and all workers finish together.
	res, err := engine.Run(pr.Platform, sched.NewStatic(plan.Chunks(), false),
		engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-plan.Predicted) > 1e-6*plan.Predicted {
		t.Fatalf("simulated %v vs predicted %v", res.Makespan, plan.Predicted)
	}
	finishes := make([]float64, pr.Platform.N())
	for _, rec := range res.Trace.Records {
		if rec.CompEnd > finishes[rec.Worker] {
			finishes[rec.Worker] = rec.CompEnd
		}
	}
	for w, f := range finishes {
		if math.Abs(f-res.Makespan) > 1e-6*res.Makespan {
			t.Fatalf("worker %d finishes at %v, makespan %v", w, f, res.Makespan)
		}
	}
}

func TestSingleInstallmentDecreasingChunks(t *testing.T) {
	// With a serialized master port, earlier workers must get more work.
	plan, err := Build(paperProblem(6, 1.4), 1)
	if err != nil {
		t.Fatal(err)
	}
	row := plan.Sizes[0]
	for i := 1; i < len(row); i++ {
		if row[i] > row[i-1]+1e-9 {
			t.Fatalf("chunks should decrease across workers: %v", row)
		}
	}
}

func TestMultiInstallmentContinuity(t *testing.T) {
	pr := paperProblem(4, 1.5)
	plan, err := Build(pr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Installments != 3 {
		t.Fatalf("installments = %d", plan.Installments)
	}
	// Simulate on the latency-free platform: workers must never idle
	// between their first arrival and their finish, and all finish
	// together at the predicted makespan.
	res, err := engine.Run(pr.Platform, sched.NewStatic(plan.Chunks(), false),
		engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-plan.Predicted) > 1e-6*plan.Predicted {
		t.Fatalf("simulated %v vs predicted %v", res.Makespan, plan.Predicted)
	}
	idle := res.Trace.WorkerIdle(pr.Platform.N())
	for w, v := range idle {
		if v > 1e-6 {
			t.Fatalf("worker %d idles %v under the exact MI model", w, v)
		}
	}
}

func TestInstallmentSizesIncrease(t *testing.T) {
	// In the multi-installment strategy each worker's successive chunks
	// grow (transfers hide under ever-longer computations).
	plan, err := Build(paperProblem(4, 1.5), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 1; j < plan.Installments; j++ {
			if plan.Sizes[j][i] < plan.Sizes[j-1][i]-1e-9 {
				t.Fatalf("worker %d installment %d shrank: %v -> %v",
					i, j, plan.Sizes[j-1][i], plan.Sizes[j][i])
			}
		}
	}
}

func TestInfeasibleFallsBack(t *testing.T) {
	// A starved master (B barely above S per worker, many workers) cannot
	// sustain many installments; the planner must fall back rather than
	// emit negative chunks.
	p := platform.Homogeneous(12, 1, 13, 0, 0) // utilization ratio ~0.92
	pr := &sched.Problem{Platform: p, Total: 1000, MinUnit: 1}
	plan, err := Build(pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Requested != 4 {
		t.Fatalf("requested = %d", plan.Requested)
	}
	if math.Abs(plan.Total()-1000) > 1e-6 {
		t.Fatalf("total = %v", plan.Total())
	}
	for _, row := range plan.Sizes {
		for _, c := range row {
			if c < 0 {
				t.Fatalf("negative chunk %v", c)
			}
		}
	}
}

func TestBuildValidatesInput(t *testing.T) {
	if _, err := Build(&sched.Problem{}, 2); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if _, err := Build(paperProblem(4, 1.5), 0); err == nil {
		t.Fatal("zero installments accepted")
	}
}

func TestSchedulerNames(t *testing.T) {
	for x := 1; x <= 4; x++ {
		s := Scheduler{Installments: x}
		want := map[int]string{1: "MI-1", 2: "MI-2", 3: "MI-3", 4: "MI-4"}[x]
		if s.Name() != want {
			t.Fatalf("name = %q", s.Name())
		}
	}
}

func TestSchedulerDispatches(t *testing.T) {
	pr := paperProblem(6, 1.6)
	d, err := Scheduler{Installments: 2}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
}

// Property: over the paper's grid, MI-x plans conserve the workload and
// produce non-negative chunks for x = 1..4.
func TestGridFeasibility(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 10 + 5*src.Intn(9)
		r := 1.2 + 0.1*float64(src.Intn(9))
		x := 1 + src.Intn(4)
		pr := paperProblem(n, r)
		plan, err := Build(pr, x)
		if err != nil {
			return false
		}
		if math.Abs(plan.Total()-1000) > 1e-6 {
			return false
		}
		for _, row := range plan.Sizes {
			for _, c := range row {
				if c < 0 || math.IsNaN(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMIBuild times one MI-4 plan on the largest sweep platform:
// the dense (N·x)² solve a shared-tier miss pays.
func BenchmarkMIBuild(b *testing.B) {
	pr := paperProblem(50, 1.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pr, 4); err != nil {
			b.Fatal(err)
		}
	}
}
