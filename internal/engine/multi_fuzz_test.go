package engine

import (
	"math"
	"sort"
	"testing"

	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/trace"
)

// FuzzMultiJobRun feeds the multi-job engine randomized platforms, job
// counts, arrival times, weights, priorities, link policies and port
// widths (1 to 3 concurrent sends), and
// asserts the shared-platform invariants on every input: the run
// terminates without error, every job's workload is dispatched and
// computed exactly, no transfer starts before its job arrives, and the
// job-tagged trace passes the independent multi-job validator (per-job
// conservation + link serialisation across jobs).
func FuzzMultiJobRun(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(2003), uint64(0xFA))
	f.Add(uint64(0), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, seed, mix uint64) {
		src := rng.NewFrom(seed, mix)
		n := 2 + src.Intn(8)
		p := platform.Heterogeneous(platform.HeterogeneousSpec{
			N:    n,
			SMin: 0.5, SMax: 2,
			BMin: 1.2 * float64(n), BMax: 2.5 * float64(n),
			CLatMax: 0.5, NLatMax: 0.5, TLatMax: 0.2,
		}, src.Split())
		nJobs := 1 + src.Intn(5)
		policy := LinkPolicies()[src.Intn(len(LinkPolicies()))]
		arr := make([]float64, nJobs)
		for j := range arr {
			arr[j] = src.Float64() * 30
		}
		sort.Float64s(arr)
		errMag := src.Float64() * 0.4
		jobs := make([]Job, nJobs)
		specs := make([]trace.MultiJobSpec, nJobs)
		for j := range jobs {
			total := 20 + 20*float64(src.Intn(4))
			jobs[j] = Job{
				Arrival:    arr[j],
				Priority:   src.Intn(3),
				Weight:     0.5 + src.Float64()*3.5,
				Total:      total,
				Dispatcher: &demandDispatcher{remaining: total, size: 1 + src.Float64()*9},
				CommModel:  perferr.NewTruncNormal(errMag, src.Split()),
				CompModel:  perferr.NewTruncNormal(errMag, src.Split()),
			}
			specs[j] = trace.MultiJobSpec{Arrival: arr[j], Total: total}
		}
		slots := 1 + src.Intn(3)
		res, err := RunMulti(p, jobs, MultiOptions{
			Policy:        policy,
			ParallelSends: slots,
			RecordTrace:   true,
		})
		if err != nil {
			t.Fatalf("multi-job engine failed (n=%d jobs=%d policy=%s slots=%d): %v",
				n, nJobs, policy.Name(), slots, err)
		}
		for j, jr := range res.Jobs {
			if math.Abs(jr.DispatchedWork-jobs[j].Total) > 1e-6 {
				t.Fatalf("job %d dispatched %g, want %g", j, jr.DispatchedWork, jobs[j].Total)
			}
			if math.Abs(jr.CompletedWork-jobs[j].Total) > 1e-6 {
				t.Fatalf("job %d completed %g of %g", j, jr.CompletedWork, jobs[j].Total)
			}
			if jr.Finish > res.Makespan || jr.Start < jr.Arrival {
				t.Fatalf("job %d times inconsistent: %+v (makespan %g)", j, jr, res.Makespan)
			}
		}
		if err := res.Trace.ValidateMultiJob(p, specs); err != nil {
			t.Fatalf("trace invalid (policy=%s slots=%d): %v", policy.Name(), slots, err)
		}
	})
}
