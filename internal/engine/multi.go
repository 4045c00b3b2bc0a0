package engine

// The simulation core: one DES run hosting N >= 1 divisible loads that
// share the star platform. Each job brings its own dispatcher, workload and
// perturbation streams; all contend for the serialised master port under a
// LinkPolicy (FCFS, strict priority or weighted share) and for the
// workers' CPUs (chunks from different jobs queue FIFO at each worker, in
// arrival order). Jobs enter the system at their Arrival time — before
// it, a job's dispatcher is never consulted — which is what open-arrival
// scenarios are built from. RunMulti exposes the N-job case; Run
// (engine.go) is the one-job case. Faults and recovery act on the same
// run state (faults.go).

import (
	"fmt"
	"math"
	"sync"

	"rumr/internal/des"
	"rumr/internal/fault"
	"rumr/internal/metrics"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/trace"
)

// Job is one divisible load of a multi-job run.
type Job struct {
	// Name labels the job in traces and reports ("" is allowed).
	Name string
	// Arrival is the virtual time the job enters the system; its
	// dispatcher is first consulted when the port is free at or after it.
	Arrival float64
	// Priority is the job's class under StrictPriority (lower = more
	// urgent).
	Priority int
	// Weight is the job's link share under WeightedShare; zero selects 1.
	Weight float64
	// Total is the job's intended workload in units — bookkeeping only
	// (the dispatcher decides what is actually sent); callers should check
	// the job's DispatchedWork against it, as with Result.DispatchedWork.
	Total float64
	// Dispatcher decides the job's chunks. Every job is handed the run's
	// one View of the shared worker state, so Queued/InFlight/Computing
	// include every job's chunks (contention is visible). A job learns of
	// its own completions through Observer.OnComplete; JobResult.
	// CompletedWork totals them.
	Dispatcher Dispatcher
	// CommModel and CompModel perturb this job's transfer and computation
	// durations; nil means perfect prediction. Giving each job its own
	// models (with independently seeded sources) is what "each job has its
	// own RNG stream" means operationally.
	CommModel, CompModel perferr.Model
}

// JobResult summarises one job of a multi-job run.
type JobResult struct {
	// Name echoes the job's label.
	Name string
	// Arrival echoes the job's arrival time.
	Arrival float64
	// Start is the first time the master began transferring for this job
	// (equal to Arrival at the earliest); it is Arrival when the job never
	// sent anything.
	Start float64
	// Finish is the completion time of the job's last chunk (Arrival when
	// nothing completed).
	Finish float64
	// Response is Finish - Arrival: the job's makespan as its owner
	// experiences it.
	Response float64
	// Chunks is the number of chunks the job dispatched (first attempts
	// only).
	Chunks int
	// DispatchedWork and CompletedWork account the job's workload units
	// (equal in fault-free runs once the run drains). Fault-recovery
	// re-sends are not counted again in DispatchedWork.
	DispatchedWork float64
	CompletedWork  float64
}

// MultiOptions tune a multi-job run.
type MultiOptions struct {
	// Policy arbitrates the master's port between jobs; nil selects FCFS.
	Policy LinkPolicy
	// ParallelSends is the master's port capacity (0 or 1 = the paper's
	// serialised port). Multi-job contention is most meaningful at 1.
	ParallelSends int
	// RecordTrace makes RunMulti return a full per-chunk trace with
	// job-tagged records (ChunkRecord.Job).
	RecordTrace bool
	// Metrics, when non-nil, receives one AddRun for the whole multi-job
	// run (total chunks, DES events, overall makespan).
	Metrics *metrics.Collector
	// Counters, when non-nil, accumulates the engine's hot-path telemetry
	// (DES events, dispatcher consults, RNG draws) into the pointed-to
	// struct with plain integer adds, exactly as Options.Counters does for
	// Run. Not safe to share across concurrent runs.
	Counters *Counters
	// JobResults, when non-nil and with capacity for every job, becomes
	// the backing store of MultiResult.Jobs, so batch callers avoid the
	// per-run result allocation. Its contents are overwritten; the
	// returned MultiResult.Jobs aliases it.
	JobResults []JobResult
	// Events, when non-nil, receives every state change tagged with the
	// job it belongs to; dispatchers implementing obs.Emitter are attached
	// to their job's tagged stream.
	Events obs.JobSink
}

// MultiResult summarises one multi-job run.
type MultiResult struct {
	// Jobs holds one result per input job, in input order.
	Jobs []JobResult
	// Makespan is the completion time of the last chunk of any job.
	Makespan float64
	// Chunks is the total number of chunks dispatched across jobs.
	Chunks int
	// Trace is non-nil when MultiOptions.RecordTrace was set; records
	// carry the owning job in ChunkRecord.Job.
	Trace *trace.Trace
	// Events is the number of simulator events processed.
	Events uint64
}

// ExhaustedDispatcher is an optional Dispatcher capability. Exhausted
// reports that Next can never again return a chunk, no matter how the
// platform evolves — the dispatcher's workload is fully dispatched and no
// mechanism can hand it more. The engine uses it to stop consulting
// drained jobs for the rest of the run. The report must be permanent: a
// dispatcher that might still receive work mid-run (a fault-tolerance
// transfer, an adaptive split decision) must answer false until that can
// no longer happen, or not implement the interface at all.
type ExhaustedDispatcher interface {
	Exhausted() bool
}

// chunkPhase is the life-cycle state of a chunk's current attempt.
type chunkPhase uint8

const (
	chSending chunkPhase = iota // send or pipeline tail in progress
	chQueued                    // arrived, waiting for the CPU
	chComputing
	chDone
	chLost
)

// mjChunk is the life-cycle state of one chunk: send → pipeline tail →
// queue → compute, with faults able to cut the chain at any hop.
type mjChunk struct {
	job     int
	chunk   Chunk
	seq     int // global dispatch index across jobs; stable chunk identity
	record  int // trace record of the current attempt, -1 when tracing is off
	attempt int // 0 = original send, +1 per re-dispatch
	phase   chunkPhase
	// timer is set while the current attempt's completion timer is queued
	// and armed; clearing it before the timer fires disarms it (see live).
	timer bool
	// predicted and effective are captured at compute start for the
	// compute end and the job's Observer.
	predicted, effective float64
}

// mjWorker is the engine-private state of one worker; its
// dispatcher-visible state is multiRun.states.
type mjWorker struct {
	queue   []*mjChunk // arrived, not yet computed (FIFO across jobs)
	current *mjChunk   // computing; its queued compute end is live (see live)
	slow    float64    // compute slowdown factor (1 = nominal)
}

type mjJob struct {
	spec Job
	comm perferr.Model
	comp perferr.Model
	obsD Observer
	faD  FaultAware
	exh  ExhaustedDispatcher
	// commDraws/compDraws point at the counter field matching each
	// model's distribution (classified once per run by drawCounter), so
	// the per-draw cost is a nil check and an add.
	commDraws, compDraws *int64
	// granted is the work the link has carried for this job so far,
	// counted when a transfer is granted the port; weight is the job's
	// share under WeightedShare (> 0).
	granted, weight float64
	// key orders the job in multiRun.active: its arrival time under FCFS
	// and strict priority, granted/weight (updated at each grant) under
	// weighted share.
	key float64
	res JobResult
}

// portEnd is one transfer pending on the master's port: the attempt's
// send end at time, ordered against the DES events by the seq reserved for
// it, with the attempt's arrival payload (see pack).
type portEnd struct {
	time float64
	seq  uint64
	data uint64
}

// multiRun is the complete state of one simulation. Instances are
// pooled: Run and RunMulti borrow one, reset every field, execute, and
// return it. mjChunk structs are pooled per instance (a cursor-recycled
// arena grown by slabs, see allocMC).
type multiRun struct {
	sim  *des.Simulator
	p    *platform.Platform
	jobs []mjJob
	ev   obs.JobSink
	tr   *trace.Trace
	ctr  *Counters

	n        int
	slots    int
	chunks   int // global dispatch counter (first attempts)
	makespan float64

	// port holds the transfers occupying the master's port, at most slots
	// of them, in no particular order. Their send ends stay out of the DES
	// heap; run merges them with its root.
	port []portEnd

	workers []mjWorker
	// states is the dispatcher-visible worker state and idle its
	// View.IdleMask, re-derived in touch at each worker-state change.
	// view aliases both and is handed to every job's dispatcher, so a
	// consult copies nothing.
	states []WorkerState
	idle   []uint64
	view   View
	// active holds the arrived, not yet exhausted jobs in port-offer
	// order (see offersBefore); kick consults them front to back.
	active []int

	// polKind is the run's link policy, read once per run.
	polKind linkKind

	// Fault injection and recovery (faults.go). Lost attempts wait in
	// lostQueue, FIFO, and are re-sent before any job's fresh dispatch.
	faults                     []fault.Event
	rec                        fault.Recovery
	lostQueue                  []*mjChunk
	lostChunks, redispatches   int
	lostWork, redispatchedWork float64
	// stale counts the queued DES entries disarmed but not yet dropped or
	// compacted away; cancels counts every disarm of the run, for
	// Counters.LazyCancels.
	stale, cancels int

	// mcs is the persistent chunk arena: pointers into slabs of mjChunk
	// that allocMC adds as it runs out. Structs are handed out by cursor
	// (mcUsed); every lifecycle field is rewritten on dispatch, so
	// recycling the whole arena between runs is a cursor reset.
	mcs    []*mjChunk
	mcUsed int

	// loneSink adapts Run's event sink without allocating.
	loneSink loneSink

	err error
}

var multiRunPool = sync.Pool{New: func() any { return &multiRun{sim: des.New()} }}

// evKind is the kind of a queued DES entry or port send end.
type evKind uint64

const (
	evActivate evKind = iota // a job arrives; index is the job
	evFault                  // index is the fault in mr.faults
	evArrive                 // an attempt's data arrives at worker
	evCompEnd                // index is the chunk; attempt its generation
	evTimeout                // index is the chunk; attempt its generation
)

// An entry's payload packs kind | index | worker | attempt, low bits
// last. The index is a job, a fault or a chunk's dispatch seq (its arena
// slot); the worker is the attempt's destination, since a chunk can be
// re-dispatched while a stale transfer to its old worker is in flight and
// the stale arrival must release that worker's counter; the attempt is the
// generation of a compute end or a timer (see live).
const (
	kindBits    = 3
	indexBits   = 24
	workerBits  = 20
	attemptBits = 17
	// The fields fill one uint64; a wider layout fails to compile here.
	_ uint = 64 - kindBits - indexBits - workerBits - attemptBits
)

// maxIndex and maxAttempt are the largest index and attempt a payload
// holds; a run that needs more fails with an error rather than wrapping.
// Variables only so tests can lower them.
var maxIndex, maxAttempt = 1<<indexBits - 1, 1<<attemptBits - 1

func pack(k evKind, index, worker, attempt int) uint64 {
	return uint64(k)<<(indexBits+workerBits+attemptBits) | uint64(index)<<(workerBits+attemptBits) |
		uint64(worker)<<attemptBits | uint64(attempt)
}

func unpack(data uint64) (k evKind, index, worker, attempt int) {
	return evKind(data >> (indexBits + workerBits + attemptBits)),
		int(data >> (workerBits + attemptBits) & (1<<indexBits - 1)),
		int(data >> attemptBits & (1<<workerBits - 1)),
		int(data & (1<<attemptBits - 1))
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Old contents are kept; callers reset what they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RunMulti simulates the concurrent execution of several divisible loads
// on p and returns per-job and overall results. It returns an error for
// invalid platforms, malformed job specs or misbehaving dispatchers.
func RunMulti(p *platform.Platform, jobs []Job, opts MultiOptions) (MultiResult, error) {
	if err := validate(p, nil, jobs); err != nil {
		return MultiResult{}, err
	}
	if len(jobs) == 0 {
		return MultiResult{}, fmt.Errorf("engine: multi-job run needs at least one job")
	}
	mr := multiRunPool.Get().(*multiRun)
	var res MultiResult
	err := mr.exec(p, jobs, opts, nil, fault.Recovery{})
	if err == nil {
		out := resize(opts.JobResults, len(jobs))
		for j := range mr.jobs {
			out[j] = mr.jobs[j].res
		}
		res = MultiResult{
			Jobs:     out,
			Makespan: mr.makespan,
			Chunks:   mr.chunks,
			Trace:    mr.tr,
			Events:   mr.sim.Processed(),
		}
	}
	mr.release()
	multiRunPool.Put(mr)
	return res, err
}

// exec resets the pooled state for (p, jobs, opts, faults, rec) and plays
// the simulation, leaving the outcome in the run state for the caller to
// read before release.
func (mr *multiRun) exec(p *platform.Platform, jobs []Job, opts MultiOptions, faults *fault.Schedule, rec fault.Recovery) error {
	mr.p = p
	mr.ev = opts.Events
	mr.ctr = opts.Counters
	mr.rec = rec
	mr.n = p.N()
	mr.slots = opts.ParallelSends
	mr.polKind = polFCFS
	if opts.Policy != nil {
		mr.polKind = opts.Policy.kind()
	}
	if mr.slots <= 0 {
		mr.slots = 1
	}
	mr.port = mr.port[:0]
	mr.chunks = 0
	mr.makespan = 0
	mr.lostChunks, mr.redispatches = 0, 0
	mr.lostWork, mr.redispatchedWork = 0, 0
	mr.stale, mr.cancels = 0, 0
	mr.sim.Reset()

	if opts.RecordTrace {
		mr.tr = &trace.Trace{ParallelSends: mr.slots}
	}
	mr.mcUsed = 0

	mr.workers = resize(mr.workers, mr.n)
	for i := range mr.workers {
		w := &mr.workers[i]
		w.slow = 1
	}
	mr.states = resize(mr.states, mr.n)
	clear(mr.states)
	mr.active = resize(mr.active, len(jobs))[:0]

	idleWords := (mr.n + 63) / 64
	mr.idle = resize(mr.idle, idleWords)
	for i := range mr.idle {
		mr.idle[i] = ^uint64(0) // every worker starts idle
	}
	if rem := mr.n & 63; rem != 0 {
		mr.idle[idleWords-1] = 1<<rem - 1
	}
	mr.view = View{Workers: mr.states, IdleMask: mr.idle}

	// Fault events are scheduled before anything else, so a fault fires
	// ahead of any chunk event due at the same instant.
	if !faults.Empty() {
		mr.faults = faults.Events
		for i, fe := range mr.faults {
			mr.sim.At(fe.Time, pack(evFault, i, 0, 0))
		}
	}

	mr.jobs = resize(mr.jobs, len(jobs))
	for j, spec := range jobs {
		js := &mr.jobs[j]
		*js = mjJob{
			spec: spec, comm: spec.CommModel, comp: spec.CompModel,
			weight: spec.Weight, key: spec.Arrival,
			res: JobResult{Name: spec.Name, Arrival: spec.Arrival},
		}
		if js.comm == nil {
			js.comm = perferr.Perfect{}
		}
		if js.comp == nil {
			js.comp = perferr.Perfect{}
		}
		js.obsD, _ = spec.Dispatcher.(Observer)
		js.faD, _ = spec.Dispatcher.(FaultAware)
		js.exh, _ = spec.Dispatcher.(ExhaustedDispatcher)
		js.commDraws = drawCounter(mr.ctr, js.comm)
		js.compDraws = drawCounter(mr.ctr, js.comp)
		if js.weight <= 0 {
			js.weight = 1
		}
		if mr.polKind == polWeighted {
			js.key = 0 // granted/weight at granted = 0
		}
		if em, ok := spec.Dispatcher.(obs.Emitter); ok && mr.ev != nil {
			// Run's dispatcher emits straight into its caller's sink.
			if ls, lone := mr.ev.(*loneSink); lone {
				em.AttachEvents(ls.Sink)
			} else {
				em.AttachEvents(obs.ForJob(j, mr.ev))
			}
		}
		if spec.Arrival > 0 {
			mr.sim.At(spec.Arrival, pack(evActivate, j, 0, 0))
		}
	}
	// Jobs present from the start enter now, in index order — exactly
	// where their activation events would fire, as every other event of
	// the run is scheduled after them.
	for j := range jobs {
		if jobs[j].Arrival == 0 {
			mr.activate(j)
		}
	}

	mr.run()
	if mr.err != nil {
		return mr.err
	}
	// Chunks still awaiting re-dispatch when the simulation drains (every
	// surviving worker unreachable) are permanently lost.
	for _, pc := range mr.lostQueue {
		mr.lostWork += pc.chunk.Size
	}
	for j := range mr.jobs {
		jr := &mr.jobs[j].res
		if jr.Chunks == 0 {
			jr.Start = jr.Arrival
		}
		if jr.Finish < jr.Arrival {
			jr.Finish = jr.Arrival
		}
		jr.Response = jr.Finish - jr.Arrival
		mr.emit(j, obs.Event{Kind: obs.KindRunDone, Time: jr.Finish, Worker: -1,
			Seq: jr.Chunks, Size: jr.DispatchedWork})
	}
	if mr.ctr != nil {
		// The DES kernel keeps its own always-on counters; fold them in
		// once per run rather than branching per event in the inner loop.
		st := mr.sim.Stats()
		mr.ctr.EventsPushed += int64(st.Pushed)
		mr.ctr.EventsPopped += int64(st.Fired)
		mr.ctr.EventsReplaced += int64(st.Replaced)
		mr.ctr.LazyCancels += int64(mr.cancels)
		if d := int64(st.MaxDepth); d > mr.ctr.MaxHeapDepth {
			mr.ctr.MaxHeapDepth = d
		}
		mr.ctr.Redispatches += int64(mr.redispatches)
	}
	if mr.tr != nil {
		mr.tr.Makespan = mr.makespan
	}
	if opts.Metrics != nil {
		opts.Metrics.AddRun(mr.chunks, mr.sim.Processed(), mr.makespan)
	}
	return nil
}

// run plays the events in (time, seq) order until none is left or an
// event fails the run. Each step fires the earlier of the live DES root
// and the earliest send end on the port; as every send end took its seq
// from the simulator when it was sent, the order is the one a single queue
// holding both would give. A DES entry is acted on by its payload's kind.
func (mr *multiRun) run() {
	for mr.err == nil {
		// peek does not inline (it calls live and Drop), so the run loop
		// reads the root itself and calls peek only while a stale entry
		// is queued, which no fault-free run does.
		t, seq, data, ok := mr.sim.Peek()
		if mr.stale > 0 {
			t, seq, data, ok = mr.peek()
		}
		next := -1
		for i := range mr.port {
			if e := &mr.port[i]; !ok || e.time < t || (e.time == t && e.seq < seq) {
				next, t, seq, ok = i, e.time, e.seq, true
			}
		}
		switch {
		case next >= 0:
			mr.onSendEnd(next)
		case ok:
			mr.sim.Step()
			switch k, index, wi, attempt := unpack(data); k {
			case evCompEnd:
				mr.onCompEnd(mr.mcs[index])
			case evArrive:
				mr.onArrive(mr.mcs[index], wi, attempt)
			case evTimeout:
				mr.onTimeout(mr.mcs[index])
			case evActivate:
				mr.activate(index)
			case evFault:
				mr.applyFault(mr.faults[index])
			}
			mr.sim.Settle()
		default:
			return
		}
	}
}

// peek reports the live DES root, as Peek does, after dropping every
// stale entry that has surfaced there. The root is only checked while
// stale entries are queued: in every fault-free run none is, and no chunk
// is read to peek.
func (mr *multiRun) peek() (t float64, seq, data uint64, ok bool) {
	t, seq, data, ok = mr.sim.Peek()
	for ok && mr.stale > 0 && !mr.live(data) {
		mr.sim.Drop()
		mr.stale--
		t, seq, data, ok = mr.sim.Peek()
	}
	return t, seq, data, ok
}

// live reports whether a queued entry is still armed. Compute ends and
// completion timers carry the attempt they were queued for as their
// generation: a compute end is live while its chunk is still computing
// that attempt, a timer while that attempt's timer is armed. Every other
// entry always is.
func (mr *multiRun) live(data uint64) bool {
	k, index, _, attempt := unpack(data)
	switch k {
	case evCompEnd:
		pc := mr.mcs[index]
		return pc.attempt == attempt && mr.workers[pc.chunk.Worker].current == pc
	case evTimeout:
		pc := mr.mcs[index]
		return pc.attempt == attempt && pc.timer
	}
	return true
}

// disarm accounts one queued entry that live now rejects: it stays queued
// until it reaches the root, or until stale entries are more than
// compactMin and more than half the queue, when one compaction removes
// them all (O(1) amortised per disarm). The caller updates the state live
// reads first.
func (mr *multiRun) disarm() {
	mr.stale++
	mr.cancels++
	if mr.stale > compactMin && mr.stale > mr.sim.QueueLen()/2 {
		mr.sim.Compact(mr.live)
		mr.stale = 0
	}
}

// compactMin is the minimum number of stale entries before a compaction
// is considered; below it they are cheaper to drop at the root.
const compactMin = 64

// release drops every borrowed reference before the instance goes back to
// the pool, and recycles this run's chunks by resetting the arena cursor
// (chunk structs hold no pointers, and kick/send/beginCompute rewrite
// every lifecycle field, so no per-chunk scrub is needed). Capacities (heap, arena, queues, worker
// states) are retained — that is the point of pooling.
func (mr *multiRun) release() {
	mr.mcUsed = 0
	for i := range mr.workers {
		w := &mr.workers[i]
		for j := range w.queue {
			w.queue[j] = nil
		}
		w.queue = w.queue[:0]
		w.current = nil
	}
	clear(mr.lostQueue)
	mr.lostQueue = mr.lostQueue[:0]
	clear(mr.jobs)
	mr.loneSink.Sink = nil
	mr.p = nil
	mr.ev = nil
	mr.tr = nil
	mr.ctr = nil
	mr.faults = nil
	mr.err = nil
}

// allocMC hands out the next chunk struct from the arena: dispatch k gets
// mcs[k], so a payload's index finds its chunk. An exhausted arena grows
// by one slab of max(16, len(mcs)) structs, so a cold core costs O(log n)
// allocations for n chunks; pointers into older slabs stay valid. Structs
// come back with stale or zero lifecycle fields; kick (job, chunk, seq,
// attempt), send (phase, record, timer) and beginCompute (predicted,
// effective) rewrite all of them before any reader sees the struct.
func (mr *multiRun) allocMC() *mjChunk {
	if mr.mcUsed == len(mr.mcs) {
		slab := make([]mjChunk, max(16, len(mr.mcs)))
		for i := range slab {
			mr.mcs = append(mr.mcs, &slab[i])
		}
	}
	pc := mr.mcs[mr.mcUsed]
	mr.mcUsed++
	return pc
}

// maxChunks aborts runaway dispatchers: it caps the chunks dispatched
// across all jobs of a run, and separately the fault-recovery
// re-dispatches. A variable only so tests can lower it; it stays below
// maxIndex, which caps the chunks a payload can address.
var maxChunks = 10_000_000

func (mr *multiRun) fail(err error) {
	if mr.err == nil {
		mr.err = err
	}
}

func (mr *multiRun) emit(job int, e obs.Event) {
	if mr.ev != nil {
		mr.ev.EmitJob(job, e)
	}
}

// emitChunk reports a life-cycle step of one attempt of pc, on worker wi,
// at the current time. It stays small enough to inline, so a run without
// events pays one branch per step.
func (mr *multiRun) emitChunk(kind obs.Kind, pc *mjChunk, wi, attempt int, reason string) {
	if mr.ev != nil {
		mr.emitChunkEvent(kind, pc, wi, attempt, reason)
	}
}

func (mr *multiRun) emitChunkEvent(kind obs.Kind, pc *mjChunk, wi, attempt int, reason string) {
	c := &pc.chunk
	mr.ev.EmitJob(pc.job, obs.Event{Kind: kind, Time: mr.sim.Now(), Worker: wi, Seq: pc.seq,
		Size: c.Size, Round: c.Round, Phase: c.Phase, Attempt: attempt, Reason: reason})
}

func (mr *multiRun) activate(j int) {
	mr.place(j)
	mr.kick()
}

// offersBefore reports whether job a is offered the port before job b:
// by priority class under strict priority, then by key, then by index.
func (mr *multiRun) offersBefore(a, b int) bool {
	ja, jb := &mr.jobs[a], &mr.jobs[b]
	if mr.polKind == polPriority && ja.spec.Priority != jb.spec.Priority {
		return ja.spec.Priority < jb.spec.Priority
	}
	if ja.key != jb.key {
		return ja.key < jb.key
	}
	return a < b
}

// place inserts job j into mr.active at its port-offer position.
func (mr *multiRun) place(j int) {
	ins := len(mr.active)
	for i, a := range mr.active {
		if mr.offersBefore(j, a) {
			ins = i
			break
		}
	}
	mr.active = append(mr.active, 0)
	copy(mr.active[ins+1:], mr.active[ins:])
	mr.active[ins] = j
}

// reposition moves job j to its new port-offer position after its key
// grew (a grant under weighted share): j can only move back, past the jobs
// that now offer before it, so it shifts them forward in place. A job that
// already left mr.active stays out: a re-dispatched chunk can belong to a
// job that is exhausted.
func (mr *multiRun) reposition(j int) {
	a := mr.active
	for i := range a {
		if a[i] == j {
			for ; i+1 < len(a) && mr.offersBefore(a[i+1], j); i++ {
				a[i] = a[i+1]
			}
			a[i] = j
			return
		}
	}
}

// touch re-derives worker wi's bit of the shared idle mask. Every
// mutation site completes its state writes before calling touch, so the
// mask is never stale at a consult.
func (mr *multiRun) touch(wi int) {
	w, b := wi>>6, uint64(1)<<(wi&63)
	if mr.states[wi].Idle() {
		mr.idle[w] |= b
	} else {
		mr.idle[w] &^= b
	}
}

// touchBusy is touch for mutation sites whose transition can only leave
// the worker busy (a send put a chunk in flight, an arrival queued one, a
// compute started): the idle bit is cleared without rechecking the state.
func (mr *multiRun) touchBusy(wi int) {
	mr.idle[wi>>6] &^= uint64(1) << (wi & 63)
}

// consult returns the run's View, stamped with the current time, for one
// dispatcher call. The View aliases the worker states, so there is
// nothing to copy; SyncViewCopies counts the consults.
func (mr *multiRun) consult() *View {
	mr.view.Time = mr.sim.Now()
	if mr.ctr != nil {
		mr.ctr.SyncViewCopies++
	}
	if consultAudit != nil {
		consultAudit(mr)
	}
	return &mr.view
}

// consultAudit, when non-nil, runs at every consult: the shared-view test
// checks the run's invariants there. Nil outside tests.
var consultAudit func(mr *multiRun)

// kick offers free port slots to the jobs in mr.active order until either
// the port is saturated or every arrived job declines; lost work waiting
// for re-dispatch goes first.
func (mr *multiRun) kick() {
	for len(mr.port) < mr.slots && mr.err == nil {
		if len(mr.lostQueue) > 0 && mr.redispatch() {
			continue
		}
		dispatched := false
		for i := 0; i < len(mr.active); {
			j := mr.active[i]
			js := &mr.jobs[j]
			c, ok := js.spec.Dispatcher.Next(mr.consult())
			if !ok {
				// A permanently drained job leaves the list for good:
				// skipping it only skips consults that could never
				// produce a chunk, so the dispatch sequence is unchanged.
				if js.exh != nil && js.exh.Exhausted() {
					mr.active = append(mr.active[:i], mr.active[i+1:]...)
				} else {
					i++
				}
				continue
			}
			if c.Worker < 0 || c.Worker >= mr.n {
				mr.fail(fmt.Errorf("engine: job %d dispatcher sent chunk to worker %d of %d", j, c.Worker, mr.n))
				return
			}
			if c.Size <= 0 || math.IsNaN(c.Size) || math.IsInf(c.Size, 0) {
				mr.fail(fmt.Errorf("engine: job %d dispatcher produced invalid chunk size %g", j, c.Size))
				return
			}
			mr.chunks++
			if mr.chunks > maxChunks {
				mr.fail(fmt.Errorf("engine: dispatchers exceeded %d chunks across jobs; runaway policy?", maxChunks))
				return
			}
			if mr.chunks-1 > maxIndex {
				mr.fail(fmt.Errorf("engine: chunk %d exceeds the event payload's index limit %d", mr.chunks-1, maxIndex))
				return
			}
			if js.res.Chunks == 0 {
				js.res.Start = mr.sim.Now()
			}
			js.res.Chunks++
			js.res.DispatchedWork += c.Size
			pc := mr.allocMC()
			pc.job = j
			pc.chunk = c
			pc.seq = mr.chunks - 1
			pc.attempt = 0
			mr.send(pc)
			dispatched = true
			break
		}
		if !dispatched {
			return
		}
	}
}

// send grants the port to one attempt of pc: occupies a slot with the
// transfer's send end, accounts the grant for weighted arbitration,
// appends the attempt's trace record and arms the completion timer. Shared
// by first dispatches and re-dispatches.
func (mr *multiRun) send(pc *mjChunk) {
	js := &mr.jobs[pc.job]
	c := pc.chunk
	wi := c.Worker
	spec := &mr.p.Workers[wi]
	if js.commDraws != nil {
		*js.commDraws++
	}
	sendDur := js.comm.Perturb(spec.NLat + c.Size/spec.B)
	now := mr.sim.Now()
	pc.phase = chSending
	pc.record = -1
	pc.timer = false
	mr.states[wi].InFlight++
	mr.touchBusy(wi)
	js.granted += c.Size
	if mr.polKind == polWeighted {
		js.key = js.granted / js.weight
		mr.reposition(pc.job)
	}
	if mr.tr != nil {
		mr.tr.Records = append(mr.tr.Records, trace.ChunkRecord{
			ChunkID: pc.seq, Attempt: pc.attempt, Job: pc.job,
			Worker: wi, Size: c.Size, Round: c.Round, Phase: c.Phase,
			SendStart: now, SendEnd: now + sendDur,
			Arrive: now + sendDur + spec.TLat,
		})
		pc.record = len(mr.tr.Records) - 1
	}
	mr.emitChunk(obs.KindSendStart, pc, wi, pc.attempt, "")
	// The send slot frees when the non-overlappable part completes; the
	// worker holds the data tLat later (scheduled from onSendEnd). The
	// send end takes its seq here, before the completion timer's, exactly
	// where it would be scheduled if it were a DES event.
	end := now + sendDur
	mr.port = append(mr.port, portEnd{time: end, seq: mr.sim.Reserve(end), data: pack(evArrive, pc.seq, wi, pc.attempt)})
	if mr.rec.Enabled && mr.rec.TimeoutFactor > 0 {
		mr.armTimeout(pc)
	}
}

// onSendEnd frees the port slot of mr.port[i] at its send end. The
// entry's payload carries the attempt's (worker, attempt): both can differ
// from the chunk's current fields when the attempt was written off and
// re-dispatched while still in transit.
func (mr *multiRun) onSendEnd(i int) {
	e := mr.port[i]
	last := len(mr.port) - 1
	mr.port[i] = mr.port[last]
	mr.port = mr.port[:last]
	mr.sim.Advance(e.time)
	_, index, wi, attempt := unpack(e.data)
	pc := mr.mcs[index]
	mr.emitChunk(obs.KindSendEnd, pc, wi, attempt, "")
	if tl := mr.p.Workers[wi].TLat; tl != 0 || mr.dueNow() {
		mr.sim.After(tl, e.data)
		mr.kick()
		return
	}
	// TLat == 0 (every sweep platform) and no other event due at this
	// instant: the arrival would be the very next event, at this same
	// timestamp. Offer the freed port slot first — the dispatch decision
	// must see the pre-arrival view, exactly as when the arrival popped as
	// its own event — then deliver the chunk inline, saving one simulator
	// event per chunk. Anything the offer schedules at this instant would
	// fire after the arrival anyway; an event already due now would fire
	// before it, which is why that case schedules the arrival instead.
	mr.kick()
	if mr.err == nil {
		mr.onArrive(pc, wi, attempt)
	}
}

// dueNow reports whether another event is due at the current instant:
// the live DES root or another send end on the port.
func (mr *multiRun) dueNow() bool {
	now := mr.sim.Now()
	if t, _, _, ok := mr.peek(); ok && t <= now {
		return true
	}
	for i := range mr.port {
		if mr.port[i].time <= now {
			return true
		}
	}
	return false
}

// onArrive delivers the data of pc's attempt to worker wi.
func (mr *multiRun) onArrive(pc *mjChunk, wi, attempt int) {
	w, st := &mr.workers[wi], &mr.states[wi]
	st.InFlight--
	if pc.phase == chLost || pc.attempt != attempt {
		// This attempt was written off (timeout in transit) — and
		// possibly already re-dispatched elsewhere, which resets the
		// phase; the attempt counter tells a stale arrival from the
		// live one. The data arrives to no one.
		mr.touch(wi)
		mr.kick()
		return
	}
	if st.Down || st.LinkDown {
		mr.touch(wi)
		reason := "arrived at crashed worker"
		if !st.Down {
			reason = "arrived during link outage"
		}
		mr.lose(pc, reason)
		mr.kick()
		return
	}
	if !st.Computing && len(w.queue) == 0 {
		// Fast path: the chunk goes straight to the idle CPU. The Queued
		// 1-then-0 round-trip through the FIFO is unobservable — no
		// dispatcher is consulted between arrival and compute start — so
		// it is skipped along with its extra dirty-bit pass.
		st.Computing = true
		mr.touchBusy(wi)
		mr.emitChunk(obs.KindArrive, pc, wi, pc.attempt, "")
		mr.beginCompute(wi, pc)
	} else {
		st.Queued++
		pc.phase = chQueued
		w.queue = append(w.queue, pc)
		mr.touchBusy(wi)
		mr.emitChunk(obs.KindArrive, pc, wi, pc.attempt, "")
		mr.startCompute(wi)
	}
	mr.kick()
}

// startCompute pulls the worker's next queued chunk onto its CPU, if the
// worker is up and free.
func (mr *multiRun) startCompute(wi int) {
	w, st := &mr.workers[wi], &mr.states[wi]
	if st.Down || st.Computing || len(w.queue) == 0 {
		return
	}
	pc := w.queue[0]
	// Shift down rather than re-slice, so the next append can reuse the
	// backing array.
	copy(w.queue, w.queue[1:])
	w.queue[len(w.queue)-1] = nil
	w.queue = w.queue[:len(w.queue)-1]
	st.Queued--
	st.Computing = true
	mr.touchBusy(wi)
	mr.beginCompute(wi, pc)
}

// beginCompute draws the chunk's effective duration and schedules its
// completion; the caller has already marked the worker Computing.
func (mr *multiRun) beginCompute(wi int, pc *mjChunk) {
	w := &mr.workers[wi]
	w.current = pc
	pc.phase = chComputing
	js := &mr.jobs[pc.job]
	spec := &mr.p.Workers[wi]
	pc.predicted = spec.CLat + pc.chunk.Size/spec.S
	if js.compDraws != nil {
		*js.compDraws++
	}
	pc.effective = js.comp.Perturb(pc.predicted) * w.slow
	if mr.tr != nil && pc.record >= 0 {
		mr.tr.Records[pc.record].CompStart = mr.sim.Now()
	}
	mr.emitChunk(obs.KindCompStart, pc, wi, pc.attempt, "")
	mr.sim.After(pc.effective, pack(evCompEnd, pc.seq, wi, pc.attempt))
}

func (mr *multiRun) onCompEnd(pc *mjChunk) {
	wi := pc.chunk.Worker
	mr.workers[wi].current = nil
	pc.phase = chDone
	if pc.timer {
		pc.timer = false
		mr.disarm()
	}
	mr.states[wi].Computing = false
	mr.touch(wi)
	js := &mr.jobs[pc.job]
	js.res.CompletedWork += pc.chunk.Size
	end := mr.sim.Now()
	if end > js.res.Finish {
		js.res.Finish = end
	}
	if end > mr.makespan {
		mr.makespan = end
	}
	if mr.tr != nil && pc.record >= 0 {
		mr.tr.Records[pc.record].CompEnd = end
	}
	mr.emitChunk(obs.KindCompEnd, pc, wi, pc.attempt, "")
	if js.obsD != nil {
		js.obsD.OnComplete(wi, pc.chunk, end, pc.predicted, pc.effective)
	}
	mr.startCompute(wi)
	mr.kick()
}
