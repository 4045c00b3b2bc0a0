package sched_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
)

func memoProblem(knownError float64) *sched.Problem {
	return &sched.Problem{
		Platform:   platform.Homogeneous(20, 1, 30, 0.3, 0.3),
		Total:      1000,
		KnownError: knownError,
		MinUnit:    1,
	}
}

// simulateOnce runs one perturbed simulation with a fixed seed, so two
// dispatchers built for the same problem can be compared end to end.
func simulateOnce(t *testing.T, pr *sched.Problem, d engine.Dispatcher) engine.Result {
	t.Helper()
	src := rng.NewFrom(7, 1, 2, 3)
	res, err := engine.Run(pr.Platform, d, engine.Options{
		CommModel: perferr.NewTruncNormal(0.3, src.Split()),
		CompModel: perferr.NewTruncNormal(0.3, src.Split()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMemoizedDispatchersMatchFresh pins the Memoizer contract: for every
// memoizing scheduler, a dispatcher built through a memo — on a miss, on
// a hit, and with a nil memo — produces exactly the same simulation as
// NewDispatcher.
func TestMemoizedDispatchersMatchFresh(t *testing.T) {
	for _, s := range []sched.Scheduler{
		umr.Scheduler{},
		umr.Scheduler{OutOfOrder: true},
		rumr.Scheduler{},
		rumr.Scheduler{FixedPhase1Fraction: 0.7},
		rumr.Scheduler{PlainPhase1: true},
		mi.Scheduler{Installments: 1},
		mi.Scheduler{Installments: 3},
	} {
		mz, ok := s.(sched.Memoizer)
		if !ok {
			t.Fatalf("%s does not implement sched.Memoizer", s.Name())
		}
		t.Run(s.Name(), func(t *testing.T) {
			pr := memoProblem(0.3)
			fresh, err := s.NewDispatcher(pr)
			if err != nil {
				t.Fatal(err)
			}
			want := simulateOnce(t, pr, fresh)
			memo := sched.NewMemo(pr.Platform)
			for i, name := range []string{"miss", "hit", "nil-memo"} {
				m := memo
				if name == "nil-memo" {
					m = nil
				}
				d, err := mz.NewDispatcherMemo(pr, m)
				if err != nil {
					t.Fatalf("%s #%d: %v", name, i, err)
				}
				got := simulateOnce(t, pr, d)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: memoized result %+v != fresh %+v", name, got, want)
				}
			}
		})
	}
}

// TestMemoBypassesForeignPlatform checks the safety valve: a memo bound
// to one platform must not serve cached plans for another.
func TestMemoBypassesForeignPlatform(t *testing.T) {
	prA := memoProblem(-1)
	prB := &sched.Problem{
		Platform: platform.Homogeneous(10, 1, 15, 0.1, 0.1),
		Total:    1000,
		MinUnit:  1,
	}
	memo := sched.NewMemo(prA.Platform)
	a, err := umr.BuildChunksMemo(prA, memo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := umr.BuildChunksMemo(prB, memo) // foreign platform: must rebuild
	if err != nil {
		t.Fatal(err)
	}
	planB, err := umr.Build(prB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, planB.Chunks()) {
		t.Fatal("foreign-platform request served a cached plan")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("test is vacuous: the two platforms yield identical plans")
	}
}

// TestMemoCachesErrors checks that an infeasible build is cached too: the
// second request fails without re-running the solver (observable here
// only as the same error coming back through the memo path).
func TestMemoCachesErrors(t *testing.T) {
	pr := &sched.Problem{
		Platform: platform.Homogeneous(4, 1, 6, 0.1, 0.1),
		Total:    math.SmallestNonzeroFloat64, // workload too small for any plan
		MinUnit:  1,
	}
	if err := pr.Validate(); err != nil {
		t.Skipf("problem unexpectedly invalid: %v", err)
	}
	memo := sched.NewMemo(pr.Platform)
	_, err1 := umr.BuildChunksMemo(pr, memo)
	_, err2 := umr.BuildChunksMemo(pr, memo)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("memo changed failure mode: first %v, second %v", err1, err2)
	}
	if err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
}

// sharedProblem is a homogeneous MI problem with non-zero latencies.
func sharedProblem() *sched.Problem {
	p := platform.Homogeneous(10, 1, 15, 0.1, 0.2)
	for i := range p.Workers {
		p.Workers[i].TLat = 0.05
	}
	return &sched.Problem{Platform: p, Total: 1000, MinUnit: 1}
}

// planThrough builds s's dispatcher for pr through a fresh memo with
// shared attached, and returns the dispatcher's plan with the memo's
// plan counts.
func planThrough(t *testing.T, s sched.Memoizer, pr *sched.Problem, shared *sched.SharedPlans) (plan []engine.Chunk, built, served int) {
	t.Helper()
	memo := sched.NewMemo(pr.Platform)
	memo.Share(shared)
	d, err := s.NewDispatcherMemo(pr, memo)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if st, ok := d.(*sched.Static); ok {
		plan = st.Plan
	}
	built, served = memo.TakeCounts()
	return plan, built, served
}

// TestSharedPlansKeyIsComplete guards the shared plan tier against
// serving stale plans: it may merge only problems whose plans cannot
// differ. MI plans of platforms that differ in latencies alone are one
// plan; a difference in N, B, S, workload, minimal unit or installment
// count is never merged; heterogeneous platforms and the latency-
// dependent UMR and RUMR plans never reach the tier at all.
func TestSharedPlansKeyIsComplete(t *testing.T) {
	mi2 := mi.Scheduler{Installments: 2}
	var shared sched.SharedPlans
	ref, built, _ := planThrough(t, mi2, sharedProblem(), &shared)
	if built != 1 {
		t.Fatalf("first MI-2 plan: built %d, want 1", built)
	}
	same := func(a, b []engine.Chunk) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	for name, mutate := range map[string]func(*sched.Problem){
		"CLat": func(pr *sched.Problem) { pr.Platform.FillHomogeneous(10, 1, 15, 0.7, 0.2) },
		"NLat": func(pr *sched.Problem) { pr.Platform.FillHomogeneous(10, 1, 15, 0.1, 0.9) },
		"TLat": func(pr *sched.Problem) {
			for i := range pr.Platform.Workers {
				pr.Platform.Workers[i].TLat = 0.4
			}
		},
	} {
		pr := sharedProblem()
		mutate(pr)
		plan, built, served := planThrough(t, mi2, pr, &shared)
		if built != 0 || served != 1 || !same(plan, ref) {
			t.Errorf("%s differs: built %d, served %d, same plan %v; want the shared plan", name, built, served, same(plan, ref))
		}
	}

	for name, c := range map[string]struct {
		s      sched.Memoizer
		mutate func(*sched.Problem)
	}{
		"N":            {mi2, func(pr *sched.Problem) { pr.Platform.FillHomogeneous(11, 1, 15, 0.1, 0.2) }},
		"B":            {mi2, func(pr *sched.Problem) { pr.Platform.FillHomogeneous(10, 1, 16, 0.1, 0.2) }},
		"S":            {mi2, func(pr *sched.Problem) { pr.Platform.FillHomogeneous(10, 1.5, 15, 0.1, 0.2) }},
		"Total":        {mi2, func(pr *sched.Problem) { pr.Total = 900 }},
		"MinUnit":      {mi2, func(pr *sched.Problem) { pr.MinUnit = 2 }},
		"installments": {mi.Scheduler{Installments: 3}, func(*sched.Problem) {}},
	} {
		pr := sharedProblem()
		c.mutate(pr)
		plan, built, served := planThrough(t, c.s, pr, &shared)
		if built != 1 || served != 0 || same(plan, ref) {
			t.Errorf("%s differs: built %d, served %d, same plan %v; want a plan of its own",
				name, built, served, same(plan, ref))
			continue
		}
		if again, _, served := planThrough(t, c.s, pr, &shared); served != 1 || !same(again, plan) {
			t.Errorf("%s differs: the plan of its own was not shared under its own key", name)
		}
		fresh, err := c.s.NewDispatcher(pr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, fresh.(*sched.Static).Plan) {
			t.Errorf("%s differs: shared-tier plan is not the plan of its own problem", name)
		}
	}

	// Off the shared tier, each memo — each sweep cell — builds its own
	// plan, so the second of two memos on one problem builds again.
	hetero := func(mutate func(*sched.Problem)) *sched.Problem {
		pr := sharedProblem()
		mutate(pr)
		return pr
	}
	for name, c := range map[string]struct {
		s  sched.Memoizer
		pr *sched.Problem
	}{
		"heterogeneous B": {mi2, hetero(func(pr *sched.Problem) { pr.Platform.Workers[3].B = 20 })},
		"heterogeneous S": {mi2, hetero(func(pr *sched.Problem) { pr.Platform.Workers[7].S = 2 })},
		"UMR":             {umr.Scheduler{}, sharedProblem()},
		"RUMR":            {rumr.Scheduler{}, sharedProblem()},
		"RUMR-fixed70":    {rumr.Scheduler{FixedPhase1Fraction: 0.7}, sharedProblem()},
	} {
		for i := 0; i < 2; i++ {
			if _, built, served := planThrough(t, c.s, c.pr, &shared); built != 1 || served != 0 {
				t.Errorf("%s, memo %d: built %d, served %d; want the per-cell tier", name, i, built, served)
			}
		}
	}
}

// TestSharedPlansHitAllocatesNothing pins the shared tier's hit path at
// zero allocations: a lock, a map lookup and a completed once.
func TestSharedPlansHitAllocatesNothing(t *testing.T) {
	pr := sharedProblem()
	var shared sched.SharedPlans
	memo := sched.NewMemo(pr.Platform)
	memo.Share(&shared)
	key := sched.MemoKey{Scheduler: "MI-2/plan", Total: pr.Total, MinUnit: 1}
	val := []engine.Chunk{{Size: 1000}}
	build := func() (any, error) { return val, nil }
	if _, err := memo.DoShared(pr, key, build); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := memo.DoShared(pr, key, build); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("shared-tier hit allocated %v times, want 0", allocs)
	}
	if built, served := memo.TakeCounts(); built != 1 || served != 101 {
		t.Fatalf("counts: built %d, served %d; want 1 and 101", built, served)
	}
}

// TestSharedPlansConcurrentBuildOnce requests a handful of keys from many
// goroutines at once, each through its own memo as sweep cells do: every
// key must be built exactly once, and every requester must get the value
// that one build produced.
func TestSharedPlansConcurrentBuildOnce(t *testing.T) {
	const goroutines, keys = 16, 4
	var shared sched.SharedPlans
	var builds [keys]atomic.Int32
	var wg sync.WaitGroup
	served := make([][keys]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pr := sharedProblem()
			memo := sched.NewMemo(pr.Platform)
			memo.Share(&shared)
			for i := 0; i < keys; i++ {
				k := (g + i) % keys
				key := sched.MemoKey{Scheduler: fmt.Sprintf("key%d", k), Total: pr.Total, MinUnit: 1}
				v, err := memo.DoShared(pr, key, func() (any, error) {
					builds[k].Add(1)
					return new(int), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				served[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
		for g := 1; g < goroutines; g++ {
			if served[g][k] != served[0][k] {
				t.Errorf("goroutine %d got a different value for key %d", g, k)
			}
		}
	}
}
