package trace

// Multi-job validation. A multi-job trace interleaves the chunks of
// several divisible loads on one timeline; ChunkRecord.Job says which load
// each record belongs to. The conservation law therefore groups per job —
// every job's dispatched sizes must sum to its declared workload — and two
// invariants bind the jobs together: no record may start its transfer
// before its job has arrived, and the link-serialisation sweep runs over
// ALL records at once, so transfers of different jobs can never overlap on
// a serialised master port. Like Validate, this is independent re-checking:
// it knows the model's rules, not the engine's event wiring.

import (
	"fmt"

	"rumr/internal/platform"
)

// MultiJobSpec is the validator's expectation of one job of a multi-job
// trace: when it entered the system and how much work it was supposed to
// dispatch.
type MultiJobSpec struct {
	// Arrival is the job's arrival time; none of the job's transfers may
	// start before it.
	Arrival float64
	// Total is the workload the job's records must sum to.
	Total float64
}

// ValidateMultiJob checks a multi-job trace against the platform model and
// the per-job expectations. On top of the single-job structural rules it
// enforces:
//
//   - every record's Job indexes into jobs;
//   - per-job conservation — each job's dispatched sizes sum to its Total;
//   - arrival ordering — no transfer starts before its job's Arrival;
//   - link serialisation — the port-capacity sweep over all jobs' records
//     (no two master-link transfers overlap on a serialised port);
//   - worker compute exclusivity across jobs.
//
// Multi-job traces are fault-free (the engine does not inject faults into
// multi-job runs), so lost or re-dispatched records are rejected outright.
func (tr *Trace) ValidateMultiJob(p *platform.Platform, jobs []MultiJobSpec) error {
	if len(jobs) == 0 {
		return fmt.Errorf("trace: multi-job validation needs at least one job spec")
	}
	n := p.N()
	maxEnd := 0.0
	dispatched := make([]float64, len(jobs))
	for i, r := range tr.Records {
		if r.Job < 0 || r.Job >= len(jobs) {
			return fmt.Errorf("trace: record %d belongs to job %d of %d", i, r.Job, len(jobs))
		}
		if r.Lost || r.Attempt > 0 || r.Redispatched {
			return fmt.Errorf("trace: record %d carries fault state in a multi-job trace %+v", i, r)
		}
		if r.Worker < 0 || r.Worker >= n {
			return fmt.Errorf("trace: record %d targets worker %d of %d", i, r.Worker, n)
		}
		if r.Size <= 0 {
			return fmt.Errorf("trace: record %d has non-positive size %g", i, r.Size)
		}
		if r.SendStart < -eps || r.SendEnd < r.SendStart-eps || r.Arrive < r.SendEnd-eps {
			return fmt.Errorf("trace: record %d has inconsistent send times %+v", i, r)
		}
		if r.CompStart < r.Arrive-eps || r.CompEnd < r.CompStart-eps {
			return fmt.Errorf("trace: record %d has inconsistent compute times %+v", i, r)
		}
		if r.SendStart < jobs[r.Job].Arrival-eps {
			return fmt.Errorf("trace: record %d sent at %g before job %d arrived at %g",
				i, r.SendStart, r.Job, jobs[r.Job].Arrival)
		}
		dispatched[r.Job] += r.Size
		if r.CompEnd > maxEnd {
			maxEnd = r.CompEnd
		}
	}
	for j, spec := range jobs {
		diff := dispatched[j] - spec.Total
		if diff > eps*spec.Total+eps || diff < -eps*spec.Total-eps {
			return fmt.Errorf("trace: job %d dispatched %g units, want %g", j, dispatched[j], spec.Total)
		}
	}
	if tr.Makespan < maxEnd-eps {
		return fmt.Errorf("trace: makespan %g below last completion %g", tr.Makespan, maxEnd)
	}
	if err := tr.validatePortCapacity(); err != nil {
		return err
	}
	return tr.validateComputeExclusivity()
}
