package rumr

// Multi-job simulation API: several divisible loads share one star
// platform, contending for the serialised master link under one of the
// built-in arbitration policies. Each job plans with its own scheduler as if it owned
// the platform (the selfish model of the multi-load literature) and the
// engine arbitrates the resulting dispatch requests; per-job response
// times, slowdowns against the isolated lower bound, and a Jain fairness
// index quantify what the contention cost each job.

import (
	"fmt"
	"math"

	"rumr/internal/dlt"
	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/rng"
)

// LinkPolicy arbitrates the master's serialised port between jobs.
type LinkPolicy = engine.LinkPolicy

// FCFSLink serves jobs in arrival order; PriorityLink serves the lowest
// JobSpec.Priority class first; WeightedShareLink splits the link in
// proportion to JobSpec.Weight (deficit-round-robin style).
func FCFSLink() LinkPolicy          { return engine.FCFS() }
func PriorityLink() LinkPolicy      { return engine.StrictPriority() }
func WeightedShareLink() LinkPolicy { return engine.WeightedShare() }

// LinkPolicyByName resolves "fcfs", "priority" or "weighted"; it returns
// nil for an unknown name.
func LinkPolicyByName(name string) LinkPolicy { return engine.LinkPolicyByName(name) }

// JobEventSink consumes the tagged event stream of a multi-job run: every
// Event arrives together with the index of the job it belongs to.
type JobEventSink = obs.JobSink

// JobEventFunc adapts a function to JobEventSink.
type JobEventFunc = obs.JobFunc

// JobSpec describes one job of a multi-job simulation.
type JobSpec struct {
	// Name labels the job in results and traces.
	Name string
	// Scheduler plans this job's chunks. The scheduler sees a single-job
	// problem (the whole platform, this job's Total): contention shows up
	// as ordinary queueing delay, not in the plan.
	Scheduler Scheduler
	// Total is the job's workload in units.
	Total float64
	// Arrival is when the job enters the system (open-arrivals mode; use
	// the internal arrivals processes or any nondecreasing times).
	Arrival float64
	// Priority is the job's class under PriorityLink (lower = more urgent).
	Priority int
	// Weight is the job's share under WeightedShareLink (0 selects 1).
	Weight float64
}

// MultiSimOptions configure a multi-job simulation.
type MultiSimOptions struct {
	// Error, SchedulerError, Model and Seed work exactly as in SimOptions;
	// every job gets its own independent error streams split from Seed.
	Error          float64
	SchedulerError *float64
	Model          ErrorModel
	Seed           uint64
	// Policy arbitrates the master link between jobs (nil = FCFSLink).
	Policy LinkPolicy
	// RecordTrace attaches a job-tagged per-chunk trace to the result
	// (validate it with Trace.ValidateMultiJob, export per-job lanes with
	// Trace.WriteMultiPerfetto).
	RecordTrace bool
	// MinUnit is the workload's minimal unit (default 1).
	MinUnit float64
	// Events, when non-nil, receives every state change tagged with its
	// job index.
	Events JobEventSink
}

// JobOutcome is one job's view of a multi-job run.
type JobOutcome struct {
	Name    string
	Arrival float64
	// Start is the first time the master transferred for the job; Finish
	// is its last chunk completion; Response = Finish - Arrival.
	Start, Finish, Response float64
	// Slowdown is Response divided by the job's isolated-platform lower
	// bound (dlt.LowerBound): 1 means contention and scheduling cost the
	// job nothing; under perfect predictions and a serialised port it is
	// always >= 1.
	Slowdown float64
	Chunks   int
	// DispatchedWork and CompletedWork account the job's units (equal when
	// the run drained).
	DispatchedWork, CompletedWork float64
}

// MultiSimResult summarises a multi-job run.
type MultiSimResult struct {
	// Jobs holds one outcome per JobSpec, in input order.
	Jobs []JobOutcome
	// Makespan is the last completion across all jobs.
	Makespan float64
	// Fairness is the Jain index over the jobs' inverse slowdowns: 1 when
	// contention slowed every job equally, approaching 1/n when one job
	// monopolised the platform.
	Fairness float64
	// Chunks counts dispatched chunks across jobs; Events counts DES
	// events.
	Chunks int
	Events uint64
	// Trace is non-nil when MultiSimOptions.RecordTrace was set.
	Trace *Trace
}

// SimulateMulti runs the jobs concurrently on platform p and returns the
// per-job outcomes and fairness of the contended execution.
func SimulateMulti(p *Platform, jobs []JobSpec, opts MultiSimOptions) (MultiSimResult, error) {
	if len(jobs) == 0 {
		return MultiSimResult{}, fmt.Errorf("rumr: SimulateMulti needs at least one job")
	}
	known := opts.Error
	if opts.SchedulerError != nil {
		known = *opts.SchedulerError
	}
	src := rng.NewFrom(opts.Seed)
	streams := make([]perferr.Pair, len(jobs))
	ejobs := make([]engine.Job, len(jobs))
	for j, spec := range jobs {
		if spec.Scheduler == nil {
			return MultiSimResult{}, fmt.Errorf("rumr: job %d (%q) has no scheduler", j, spec.Name)
		}
		pr := &Problem{Platform: p, Total: spec.Total, KnownError: known, MinUnit: opts.MinUnit}
		d, err := spec.Scheduler.NewDispatcher(pr)
		if err != nil {
			return MultiSimResult{}, fmt.Errorf("rumr: job %d (%q): %w", j, spec.Name, err)
		}
		// Two splits per job in job order, so adding a job never perturbs
		// the streams of the jobs before it.
		comm, comp := streams[j].Split(src, opts.Model, opts.Error)
		ejobs[j] = engine.Job{
			Name: spec.Name, Arrival: spec.Arrival, Priority: spec.Priority,
			Weight: spec.Weight, Total: spec.Total, Dispatcher: d,
			CommModel: comm, CompModel: comp,
		}
	}
	res, err := engine.RunMulti(p, ejobs, engine.MultiOptions{
		Policy:      opts.Policy,
		RecordTrace: opts.RecordTrace,
		Events:      opts.Events,
	})
	if err != nil {
		return MultiSimResult{}, err
	}
	out := MultiSimResult{
		Jobs:     make([]JobOutcome, len(jobs)),
		Makespan: res.Makespan,
		Chunks:   res.Chunks,
		Events:   res.Events,
		Trace:    res.Trace,
	}
	inv := make([]float64, len(jobs))
	for j, jr := range res.Jobs {
		slow := math.NaN()
		if lb := dlt.LowerBound(p, jobs[j].Total); lb > 0 {
			slow = jr.Response / lb
		}
		out.Jobs[j] = JobOutcome{
			Name: jr.Name, Arrival: jr.Arrival, Start: jr.Start,
			Finish: jr.Finish, Response: jr.Response, Slowdown: slow,
			Chunks: jr.Chunks, DispatchedWork: jr.DispatchedWork,
			CompletedWork: jr.CompletedWork,
		}
		if slow > 0 && !math.IsNaN(slow) {
			inv[j] = 1 / slow
		}
	}
	out.Fairness = metrics.JainIndex(inv)
	return out, nil
}
