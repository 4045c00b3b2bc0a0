package engine

import (
	"testing"

	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// auditConsults installs a consult hook that checks the shared-view
// invariants at every dispatcher consult:
//   - the View's Workers is the engine's own worker-state slice (same
//     backing array and length), and its Time is now;
//   - each IdleMask bit equals Idle() of its worker, so a mutation site
//     that misses touch() shows up at the next consult;
//   - mr.active is sorted in the port-offer order, so an activation or a
//     weighted grant that misplaces a job shows up too.
//
// The returned func removes the hook.
func auditConsults(t *testing.T, audits *int) func() {
	t.Helper()
	consultAudit = func(mr *multiRun) {
		*audits++
		v := &mr.view
		if v.Time != mr.sim.Now() {
			t.Fatalf("audit %d: view.Time = %v, now = %v", *audits, v.Time, mr.sim.Now())
		}
		if len(v.Workers) != len(mr.states) || &v.Workers[0] != &mr.states[0] {
			t.Fatalf("audit %d: View.Workers is not the engine's worker state", *audits)
		}
		if v.IdleMask == nil {
			t.Fatalf("audit %d: view lost its IdleMask", *audits)
		}
		for i, st := range mr.states {
			if idle := v.WorkerIdle(i); idle != st.Idle() {
				t.Fatalf("audit %d: idle mask for worker %d = %v, state %+v says %v",
					*audits, i, idle, st, st.Idle())
			}
		}
		for i := 1; i < len(mr.active); i++ {
			if a, b := mr.active[i-1], mr.active[i]; !mr.offersBefore(a, b) {
				t.Fatalf("audit %d: active list %v out of order at jobs %d, %d (policy %s)",
					*audits, mr.active, a, b, mr.polKind.Name())
			}
		}
	}
	return func() { consultAudit = nil }
}

// TestSharedViewSingleJob drives the consult audit with single-job runs
// through Run under randomized fault schedules, recovery settings and
// parallel-send widths, so every fault and recovery mutation site is
// crossed before some consult.
func TestSharedViewSingleJob(t *testing.T) {
	audits := 0
	defer auditConsults(t, &audits)()

	src := rng.New(2026)
	for rep := 0; rep < 40; rep++ {
		n := 3 + src.Intn(8)
		p := platform.Homogeneous(n, 1, 20, 0.2, 0.2)
		sched := fault.Scenario{
			Horizon: 200, CrashProb: 0.4,
			RejoinProb: 0.6, RejoinDelayMin: 5, RejoinDelayMax: 50,
			OutageProb: 0.3, OutageMin: 1, OutageMax: 20,
			StragglerProb: 0.3, SlowMin: 2, SlowMax: 6,
		}.Generate(n, src.Split())
		_, err := Run(p, &demandDispatcher{remaining: 60, size: 3}, Options{
			CommModel:     perferr.NewTruncNormal(0.3, src.Split()),
			CompModel:     perferr.NewTruncNormal(0.3, src.Split()),
			Faults:        sched,
			Recovery:      fault.Recovery{Enabled: true, TimeoutFactor: 3},
			ParallelSends: 1 + src.Intn(3),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if audits == 0 {
		t.Fatal("audit hook never ran")
	}
}

// TestSharedViewMultiJob is the multi-job counterpart: jobs arrive
// staggered under every link policy, with mixed priorities and weights,
// so activations and weighted grants keep re-ordering the active list.
func TestSharedViewMultiJob(t *testing.T) {
	audits := 0
	defer auditConsults(t, &audits)()

	src := rng.New(40912)
	for _, pol := range LinkPolicies() {
		for rep := 0; rep < 10; rep++ {
			n := 2 + src.Intn(6)
			p := platform.Homogeneous(n, 1, 20, 0.2, 0.2)
			nJobs := 2 + src.Intn(3)
			jobs := make([]Job, nJobs)
			for j := range jobs {
				total := 5 + 5*float64(src.Intn(4))
				jobs[j] = Job{
					Arrival:    float64(src.Intn(10)) / 2,
					Priority:   src.Intn(3),
					Weight:     1 + float64(src.Intn(3)),
					Total:      total,
					Dispatcher: &demandDispatcher{remaining: total, size: 1 + float64(src.Intn(2))},
					CommModel:  perferr.NewTruncNormal(0.3, src.Split()),
					CompModel:  perferr.NewTruncNormal(0.3, src.Split()),
				}
			}
			if _, err := RunMulti(p, jobs, MultiOptions{Policy: pol, ParallelSends: 1 + src.Intn(2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if audits == 0 {
		t.Fatal("audit hook never ran")
	}
}
