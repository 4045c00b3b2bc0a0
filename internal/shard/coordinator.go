package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
	"rumr/internal/trace"
)

// DefaultLeaseTTL is how long a worker may sit on a lease without
// heartbeating before the coordinator re-issues its configurations.
const DefaultLeaseTTL = 15 * time.Second

// DefaultBatch is the default number of configurations per lease. Small
// batches keep the tail short (a dead worker strands little work); the
// per-lease HTTP overhead is negligible next to even one configuration's
// simulation time.
const DefaultBatch = 4

// SweepJob names one sweep for Coordinator.Run.
type SweepJob struct {
	Grid         experiment.Grid
	Algorithms   []string
	Model        experiment.ErrorModelKind
	UnknownError bool
}

// RunOptions configure one Coordinator.Run.
type RunOptions struct {
	// CheckpointPath/CachePath enable the persistence layers, exactly as
	// on the local Runner. Completed blocks posted by workers are written
	// through to both.
	CheckpointPath string
	CachePath      string
	// Metrics receives configuration counters (done/total/skipped and the
	// config-wall histogram from worker-reported wall times). Workers keep
	// their own per-run collectors; the coordinator never sees individual
	// simulations.
	Metrics *metrics.Collector
	// Progress has the Runner's contract: serialized, strictly increasing
	// done over the full grid denominator.
	Progress func(done, total int)
}

// Coordinator serves sweep configurations to workers over HTTP. Create one
// with NewCoordinator, mount Handler on a server, then call Run once per
// sweep (sequentially; concurrent Runs queue on an internal gate).
type Coordinator struct {
	// LeaseTTL and Batch default to DefaultLeaseTTL / DefaultBatch.
	LeaseTTL time.Duration
	Batch    int

	now func() time.Time

	runGate chan struct{} // capacity 1: serializes Run

	mu      sync.Mutex
	closed  bool
	seq     uint64
	job     *jobState
	workers map[string]*workerStats

	// rec fuses the current sweep's trace: the coordinator's own
	// sweep/lease spans plus everything workers ship back. It outlives the
	// jobState so spans arriving after Run returns (a worker's final lease
	// span rides its next poll) still land, and /trace and -trace-out can
	// serve the finished sweep; the next Run replaces it.
	rec       *span.Recorder
	sweepSpan span.ID
	leaseSpan map[uint64]span.ID
}

type workerStats struct {
	leased    int64
	completed int64
	expired   int64
	lastSeen  time.Time
}

type lease struct {
	id       uint64
	worker   string
	configs  []int
	deadline time.Time
}

// jobState is the mutable state of the sweep currently being served, all
// guarded by Coordinator.mu.
type jobState struct {
	spec      JobSpec
	state     *experiment.SweepState
	queue     []int // pending, not currently leased; cost-ordered
	leases    map[uint64]*lease
	done      map[int]bool
	remaining int
	doneCount int // completed + restored, for Progress
	opts      RunOptions
	finished  chan struct{}
	ended     bool // finished has been closed
	err       error
}

// NewCoordinator returns a coordinator with default tuning.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		LeaseTTL: DefaultLeaseTTL,
		Batch:    DefaultBatch,
		now:      time.Now,
		runGate:  make(chan struct{}, 1),
		workers:  make(map[string]*workerStats),
	}
}

// Run executes one sweep through the worker fleet and returns the merged
// results — byte-identical to a local Runner sweep of the same grid and
// seed. Completed configurations are restored from the checkpoint/cache
// first; only the remainder is served. Run returns when every
// configuration is merged, ctx is cancelled, or persistence fails.
func (c *Coordinator) Run(ctx context.Context, job SweepJob, opts RunOptions) (*experiment.Results, error) {
	select {
	case c.runGate <- struct{}{}:
		defer func() { <-c.runGate }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	st, err := experiment.OpenSweepState(job.Grid, job.Algorithms, job.Model, job.UnknownError,
		opts.CheckpointPath, opts.CachePath)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	total := len(st.Results.Configs)
	if opts.Metrics != nil {
		opts.Metrics.AddTotalConfigs(total)
		opts.Metrics.SkipConfigs(st.Restored())
	}
	rec := span.NewRecorder(span.TraceID(st.Fingerprint), span.CoordinatorProc)
	c.mu.Lock()
	c.rec = rec
	c.leaseSpan = make(map[uint64]span.ID)
	c.sweepSpan = rec.Start(span.Span{
		Kind: span.KindSweep, Name: "sweep " + shortFP(st.Fingerprint), Config: -1,
	})
	sweepID := c.sweepSpan
	c.mu.Unlock()
	defer rec.End(sweepID)
	if len(st.Pending) == 0 {
		return st.Results, nil
	}

	js := &jobState{
		spec: JobSpec{
			Fingerprint:  st.Fingerprint,
			Grid:         job.Grid,
			Algorithms:   job.Algorithms,
			Model:        job.Model,
			UnknownError: job.UnknownError,
		},
		state:     st,
		queue:     st.Pending,
		leases:    make(map[uint64]*lease),
		done:      make(map[int]bool),
		remaining: len(st.Pending),
		doneCount: st.Restored(),
		opts:      opts,
		finished:  make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("shard: coordinator closed")
	}
	c.job = js
	c.mu.Unlock()

	select {
	case <-js.finished:
	case <-ctx.Done():
	}
	c.mu.Lock()
	c.job = nil
	ended := js.ended
	err = js.err
	c.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case !ended:
		return nil, ctx.Err() // cancelled mid-sweep; resume via checkpoint/cache
	}
	return st.Results, nil
}

// Close makes every endpoint answer 410 Gone, which is the workers' signal
// to exit their polling loop. An active Run fails with an error.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.job != nil {
		c.failLocked(c.job, errors.New("shard: coordinator closed"))
	}
}

// finishLocked releases Run once, recording err if it is the first cause.
// Callers hold c.mu.
func (c *Coordinator) finishLocked(js *jobState, err error) {
	if js.ended {
		return
	}
	js.ended = true
	js.err = err
	close(js.finished)
}

// failLocked is finishLocked for error paths. Callers hold c.mu.
func (c *Coordinator) failLocked(js *jobState, err error) { c.finishLocked(js, err) }

// reclaimLocked returns every expired lease's unfinished configurations to
// the queue. Callers hold c.mu.
func (c *Coordinator) reclaimLocked(js *jobState) {
	now := c.now()
	for id, l := range js.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(js.leases, id)
		c.endLeaseSpanLocked(id)
		if ws := c.workers[l.worker]; ws != nil {
			ws.expired++
		}
		var back []int
		for _, ci := range l.configs {
			if !js.done[ci] {
				back = append(back, ci)
			}
		}
		// Reclaimed configurations jump the queue: they are the sweep's
		// current stragglers.
		js.queue = append(back, js.queue...)
	}
}

// endLeaseSpanLocked closes the coordinator-side span of a lease that
// completed or expired. Callers hold c.mu.
func (c *Coordinator) endLeaseSpanLocked(id uint64) {
	if c.rec == nil {
		return
	}
	if sid, ok := c.leaseSpan[id]; ok {
		c.rec.End(sid)
		delete(c.leaseSpan, id)
	}
}

func (c *Coordinator) touchWorker(name string) *workerStats {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerStats{}
		c.workers[name] = ws
	}
	ws.lastSeen = c.now()
	return ws
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/result", c.handleResult)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	return mux
}

// StatusHandler returns just the status endpoint, for mounting on a
// metrics debug mux (rumrsweep -debug-addr serves it at /shards).
func (c *Coordinator) StatusHandler() http.Handler {
	return http.HandlerFunc(c.handleStatus)
}

// Spans returns the fused trace of the current (or most recent) sweep:
// the coordinator's spans plus everything workers have shipped so far,
// with still-open spans closed at the current time. Nil before the first
// Run.
func (c *Coordinator) Spans() []span.Span {
	c.mu.Lock()
	rec := c.rec
	c.mu.Unlock()
	if rec == nil {
		return nil
	}
	return rec.Snapshot()
}

// TraceHandler serves the fused sweep trace as a Perfetto (Chrome
// trace-event) JSON download — rumrsweep mounts it at /trace on
// -debug-addr. The span set is validated before writing, so a 200 is a
// well-formed trace; 404 means no sweep has been traced yet.
func (c *Coordinator) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		spans := c.Spans()
		if len(spans) == 0 {
			http.Error(w, "no sweep traced yet", http.StatusNotFound)
			return
		}
		if err := span.Validate(spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Disposition", `attachment; filename="rumr_fleet_trace.json"`)
		if err := trace.WriteFleetPerfetto(w, spans); err != nil {
			slog.Debug("shard: fleet trace write failed", "err", err)
		}
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req, "lease request") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		http.Error(w, "coordinator shut down", http.StatusGone)
		return
	}
	ws := c.touchWorker(req.Worker)
	if c.rec != nil {
		// Absorb piggybacked spans even between sweeps: a worker's final
		// lease/backoff spans arrive on the poll after the sweep ended.
		c.rec.Add(req.Spans)
	}
	js := c.job
	if js == nil {
		noWork(w)
		return
	}
	c.reclaimLocked(js)
	if len(js.queue) == 0 {
		noWork(w) // everything is leased or done; poll again
		return
	}
	n := c.Batch
	if n <= 0 {
		n = DefaultBatch
	}
	if n > len(js.queue) {
		n = len(js.queue)
	}
	ttl := c.ttl()
	c.seq++
	l := &lease{
		id:       c.seq,
		worker:   req.Worker,
		configs:  append([]int(nil), js.queue[:n]...),
		deadline: c.now().Add(ttl),
	}
	js.queue = js.queue[n:]
	js.leases[l.id] = l
	ws.leased += int64(n)
	var tctx span.Context
	if c.rec != nil {
		sid := c.rec.Start(span.Span{
			Kind: span.KindLease, Name: fmt.Sprintf("lease %d → %s (%d cfgs)", l.id, req.Worker, n),
			Parent: c.sweepSpan, Lease: l.id, Config: -1,
		})
		c.leaseSpan[l.id] = sid
		tctx = span.Context{Trace: c.rec.Trace(), Span: sid}
	}
	writeJSON(w, Lease{ID: l.id, Job: js.spec, Configs: l.configs, TTLMillis: ttl.Milliseconds(), Trace: tctx})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res Result
	if !decodeBody(w, r, &res, "result") {
		return
	}
	mean, decodeErr := experiment.DecodeCell(res.Mean)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		http.Error(w, "coordinator shut down", http.StatusGone)
		return
	}
	ws := c.touchWorker(res.Worker)
	if c.rec != nil {
		c.rec.Add(res.Spans)
	}
	js := c.job
	if js == nil || res.Fingerprint != js.spec.Fingerprint {
		// The sweep this result belongs to is over (or never existed
		// here). Tell the worker to drop the lease and re-lease.
		http.Error(w, "stale fingerprint", http.StatusConflict)
		return
	}
	if res.Error != "" {
		c.failLocked(js, fmt.Errorf("shard: worker %s: %s", res.Worker, res.Error))
		w.WriteHeader(http.StatusOK)
		return
	}
	if decodeErr != nil || res.Config < 0 || res.Config >= len(js.state.Results.Configs) || !js.state.Fits(mean) {
		http.Error(w, "malformed mean block", http.StatusBadRequest)
		return
	}
	if !experiment.MakespansOK(mean) {
		http.Error(w, "impossible makespan in mean block", http.StatusBadRequest)
		return
	}
	if js.done[res.Config] {
		w.WriteHeader(http.StatusOK) // duplicate from a re-issued lease: same bytes, idempotent
		return
	}
	if err := js.state.Complete(res.Config, mean); err != nil {
		c.failLocked(js, err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	js.done[res.Config] = true
	js.remaining--
	js.doneCount++
	ws.completed++
	if l := js.leases[res.Lease]; l != nil && l.worker == res.Worker {
		l.deadline = c.now().Add(c.ttl()) // a result is as good as a heartbeat
		allDone := true
		for _, ci := range l.configs {
			if !js.done[ci] {
				allDone = false
				break
			}
		}
		if allDone {
			c.endLeaseSpanLocked(l.id)
		}
	}
	if js.opts.Metrics != nil {
		js.opts.Metrics.ConfigDone(time.Duration(res.WallMillis) * time.Millisecond)
		js.opts.Metrics.AddEngineCounters(res.Engine)
		js.opts.Metrics.AddPlans(res.PlansBuilt, res.PlansShared)
	}
	if js.opts.Progress != nil {
		js.opts.Progress(js.doneCount, len(js.state.Results.Configs))
	}
	if js.remaining == 0 {
		c.finishLocked(js, nil)
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if !decodeBody(w, r, &hb, "heartbeat") {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		http.Error(w, "coordinator shut down", http.StatusGone)
		return
	}
	c.touchWorker(hb.Worker)
	js := c.job
	if js == nil {
		http.Error(w, "no active sweep", http.StatusNotFound)
		return
	}
	c.reclaimLocked(js)
	l := js.leases[hb.Lease]
	if l == nil || l.worker != hb.Worker {
		// Expired and possibly re-issued; the worker should abandon it.
		http.Error(w, "lease expired", http.StatusNotFound)
		return
	}
	l.deadline = c.now().Add(c.ttl())
	w.WriteHeader(http.StatusOK)
}

// ttl returns the configured lease TTL or the default.
func (c *Coordinator) ttl() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Status())
}

// Status snapshots progress and per-worker lease accounting.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{}
	if js := c.job; js != nil {
		c.reclaimLocked(js)
		s.Active = true
		s.Fingerprint = js.spec.Fingerprint
		s.Total = len(js.state.Results.Configs)
		s.Done = js.doneCount
		s.Queued = len(js.queue)
		for _, l := range js.leases {
			for _, ci := range l.configs {
				if !js.done[ci] {
					s.Leased++
				}
			}
		}
	}
	now := c.now()
	for name, ws := range c.workers {
		s.Workers = append(s.Workers, WorkerStatus{
			Worker:        name,
			LeasedConfigs: ws.leased,
			Completed:     ws.completed,
			ExpiredLeases: ws.expired,
			LastSeenSec:   now.Sub(ws.lastSeen).Seconds(),
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// noWork answers a lease request when nothing is grantable right now.
// maxBodyBytes caps the body of every request the coordinator accepts.
// A worker's largest post, a result with its piggybacked spans, is
// orders of magnitude smaller.
const maxBodyBytes = 16 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers 413 for an oversized body and 400 for a
// malformed one, and returns false; the active sweep is unaffected.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, what+" too large", http.StatusRequestEntityTooLarge)
		return false
	case err != nil:
		http.Error(w, "bad "+what, http.StatusBadRequest)
		return false
	}
	return true
}

func noWork(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "no work available", http.StatusServiceUnavailable)
}

// shortFP abbreviates a sweep fingerprint for span names.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response write is best-effort (the client may have hung up),
		// but an encode failure is worth a debug breadcrumb.
		slog.Debug("shard: response encode failed", "err", err)
	}
}
