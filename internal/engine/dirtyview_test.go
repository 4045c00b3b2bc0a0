package engine

import (
	"testing"

	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// auditSyncViewFor installs a syncViewFor hook that is the differential
// property check for the dirty-tracked view sync: at every syncViewFor(j),
// job j's own view must carry the shared ground truth for every worker,
// with job j's own completion counts in place of the shared totals (the
// jobs' counts must add up to them), and the shared idle mask must agree
// with the state. A missing touch() at any worker-state mutation site
// shows up as the first sync after that mutation serving a stale entry.
// The returned func removes the hook.
func auditSyncViewFor(t *testing.T, audits *int) func() {
	t.Helper()
	syncViewForAudit = func(mr *multiRun, j int) {
		*audits++
		js := &mr.jobs[j]
		if js.view.Time != mr.sim.Now() {
			t.Fatalf("audit %d: view.Time = %v, now = %v", *audits, js.view.Time, mr.sim.Now())
		}
		for i := range mr.workers {
			truth := mr.workers[i].state
			got := js.view.Workers[i]
			if len(mr.jobs) > 1 {
				// Completions in a job's view are its own; they are
				// checked against the shared totals below.
				got.CompletedChunks, got.CompletedWork = truth.CompletedChunks, truth.CompletedWork
			}
			if got != truth {
				t.Fatalf("audit %d: stale view for job %d worker %d:\nview   %+v\ntruth  %+v",
					*audits, j, i, js.view.Workers[i], truth)
			}
			if idle := js.view.WorkerIdle(i); idle != truth.Idle() {
				t.Fatalf("audit %d: idle mask for job %d worker %d = %v, state says %v",
					*audits, j, i, idle, truth.Idle())
			}
			done := 0
			for k := range mr.jobs {
				done += mr.jobs[k].view.Workers[i].CompletedChunks
			}
			if done != truth.CompletedChunks {
				t.Fatalf("audit %d: jobs' views count %d completions on worker %d, shared state %d",
					*audits, done, i, truth.CompletedChunks)
			}
		}
		if js.view.IdleMask == nil {
			t.Fatalf("audit %d: view lost its IdleMask", *audits)
		}
	}
	return func() { syncViewForAudit = nil }
}

// TestSyncViewMatchesFullCopy drives the view-sync audit with single-job
// runs through Run under randomized fault schedules, recovery settings
// and parallel-send widths: at every sync the incrementally maintained
// View must equal a full copy of the worker states.
func TestSyncViewMatchesFullCopy(t *testing.T) {
	audits := 0
	defer auditSyncViewFor(t, &audits)()

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
			Recovery:      fault.Recovery{Enabled: true, TimeoutFactor: 3, TimeoutSlack: 1},
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

// TestSyncViewForMatchesFullCopy is the multi-job counterpart: jobs
// arrive staggered under every link policy, so consults alternate
// between jobs constantly, exercising every job's private dirty set.
func TestSyncViewForMatchesFullCopy(t *testing.T) {
	audits := 0
	defer auditSyncViewFor(t, &audits)()

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
