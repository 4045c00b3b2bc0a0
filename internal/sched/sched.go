// Package sched defines the common scheduler abstraction shared by all the
// divisible-workload scheduling algorithms of the study (UMR, RUMR,
// Multi-Installment, Factoring, FSC, self-scheduling) and the reusable
// dispatcher building blocks: a static plan player (with optional
// out-of-order promotion) and a demand-driven dispatcher.
package sched

import (
	"errors"
	"fmt"
	"sync"

	"rumr/internal/engine"
	"rumr/internal/obs"
	"rumr/internal/platform"
)

// Problem is one scheduling instance.
type Problem struct {
	// Platform is the star platform to run on.
	Platform *platform.Platform
	// Total is W_total, the workload in units.
	Total float64
	// KnownError is the prediction-error magnitude the scheduler may
	// assume (the paper's `error` when it is known). Schedulers that do
	// not use predictions ignore it. A negative value means "unknown".
	KnownError float64
	// MinUnit is the minimal unit of computation in the workload (the
	// paper's "unit", e.g. one sequence); chunk sizes are floored at this
	// value by the demand-driven policies so runs always terminate, even
	// on zero-latency platforms. Zero selects the default of 1 unit.
	MinUnit float64
}

// Validate checks the instance.
func (pr *Problem) Validate() error {
	if pr.Platform == nil {
		return errors.New("sched: nil platform")
	}
	if err := pr.Platform.Validate(); err != nil {
		return err
	}
	if pr.Total <= 0 {
		return fmt.Errorf("sched: workload %g must be positive", pr.Total)
	}
	if pr.MinUnit < 0 {
		return fmt.Errorf("sched: MinUnit %g must be non-negative", pr.MinUnit)
	}
	return nil
}

// EffectiveMinUnit returns the minimal chunk size to use.
func (pr *Problem) EffectiveMinUnit() float64 {
	if pr.MinUnit > 0 {
		return pr.MinUnit
	}
	return 1
}

// ErrorKnown reports whether the scheduler may rely on KnownError.
func (pr *Problem) ErrorKnown() bool { return pr.KnownError >= 0 }

// Scheduler builds a dispatcher for a problem instance. Implementations
// are stateless; all run state lives in the returned dispatcher, so one
// Scheduler value can serve concurrent simulations.
type Scheduler interface {
	// Name identifies the algorithm in reports ("RUMR", "MI-3", ...).
	Name() string
	// NewDispatcher returns a fresh dispatcher for the instance, or an
	// error when the instance is infeasible for this algorithm.
	NewDispatcher(pr *Problem) (engine.Dispatcher, error)
}

// MemoKey identifies one cached plan-construction artifact in a Memo.
// The platform is not part of the key — a Memo is bound to one platform —
// so the key only carries the scheduler identity (which must encode every
// plan-affecting parameter of the algorithm, e.g. "RUMR-fixed80/phase1")
// and the problem parameters the artifact depends on. Schedulers whose
// plan is independent of the error magnitude leave KnownError at zero,
// which is what makes the cache effective: one entry then serves every
// (error, repetition) cell of a sweep configuration. The shared tier
// (Memo.DoShared) extends the key with the platform's N, B and S.
type MemoKey struct {
	Scheduler  string
	Total      float64
	KnownError float64
	MinUnit    float64
}

type memoEntry struct {
	val any
	err error
}

// Memo caches expensive plan construction (UMR's round optimisation,
// MI's linear solve) in two tiers:
//
//   - the per-cell tier (Do) serves the repetitions of one sweep cell. It
//     is bound to one platform and intended for one goroutine — the sweep
//     runner keeps one Memo per cell, which is already per-goroutine, so
//     it needs no locking;
//   - the shared tier (DoShared), when attached with Share, outlives the
//     cell: a SharedPlans is owned by a sweep runner and serves every cell
//     it computes, concurrently. Only plans that read nothing of the
//     platform but its size and its (uniform) B and S may use it — MI's,
//     which is planned without latencies. On any other platform DoShared
//     falls back to the per-cell tier.
//
// Cached artifacts of either tier are shared by every dispatcher built
// from them and must be treated as immutable (Static never mutates its
// Plan slice).
type Memo struct {
	platform *platform.Platform
	entries  map[MemoKey]memoEntry
	shared   *SharedPlans
	// built and served count plan constructions run through this memo and
	// requests the shared tier answered from its cache, since the last
	// TakeCounts or Reset.
	built, served int
}

// NewMemo returns a memo bound to p, with no shared tier.
func NewMemo(p *platform.Platform) *Memo { return &Memo{platform: p} }

// Reset rebinds the memo to p, drops every per-cell entry (keeping the
// map's storage) and zeroes the counts, so one Memo allocation can serve
// successive sweep cells on a recycled platform value. Entries must be
// dropped even when p is the same pointer: the caller may have refilled
// the platform in place. The shared tier stays attached; its keys carry
// the platform values they depend on.
func (m *Memo) Reset(p *platform.Platform) {
	m.platform = p
	clear(m.entries)
	m.built, m.served = 0, 0
}

// Share attaches the shared tier s to the memo; nil detaches it.
func (m *Memo) Share(s *SharedPlans) { m.shared = s }

// TakeCounts returns how many plans this memo built (in either tier) and
// how many requests the shared tier served without building, since the
// last TakeCounts or Reset, and zeroes both.
func (m *Memo) TakeCounts() (built, served int) {
	built, served = m.built, m.served
	m.built, m.served = 0, 0
	return built, served
}

// Do returns the cached result for key, invoking build and caching its
// result — value or error — on first use. A nil Memo, or one bound to a
// platform other than pr.Platform, degrades to calling build directly,
// so callers need no special no-cache path.
func (m *Memo) Do(pr *Problem, key MemoKey, build func() (any, error)) (any, error) {
	if m == nil || pr.Platform != m.platform {
		return build()
	}
	if e, ok := m.entries[key]; ok {
		return e.val, e.err
	}
	val, err := build()
	m.built++
	if m.entries == nil {
		m.entries = make(map[MemoKey]memoEntry)
	}
	m.entries[key] = memoEntry{val: val, err: err}
	return val, err
}

// DoShared is Do through the shared tier: when a SharedPlans is attached
// and every worker of pr.Platform has the same B and S, the result is
// cached there under key plus the platform's size, B and S, and built
// once for all the memos sharing it. The caller guarantees that build
// reads nothing else of the platform — no latency, no per-worker
// difference. Otherwise DoShared is Do.
func (m *Memo) DoShared(pr *Problem, key MemoKey, build func() (any, error)) (any, error) {
	if m == nil || m.shared == nil || pr.Platform != m.platform {
		return m.Do(pr, key, build)
	}
	b, s, ok := uniformRates(pr.Platform)
	if !ok {
		return m.Do(pr, key, build)
	}
	e := m.shared.entry(sharedKey{MemoKey: key, n: pr.Platform.N(), b: b, s: s})
	ran := false
	e.once.Do(func() {
		e.val, e.err = build()
		ran = true
	})
	if ran {
		m.built++
	} else {
		m.served++
	}
	return e.val, e.err
}

// uniformRates returns the B and S every worker of p shares; ok is false
// when p is empty or its workers differ in either.
func uniformRates(p *platform.Platform) (b, s float64, ok bool) {
	if len(p.Workers) == 0 {
		return 0, 0, false
	}
	b, s = p.Workers[0].B, p.Workers[0].S
	for _, w := range p.Workers[1:] {
		if w.B != b || w.S != s {
			return 0, 0, false
		}
	}
	return b, s, true
}

// SharedPlans is the shared tier of plan memoization: latency-free plans
// keyed by every input they read, built once and served to every Memo it
// is attached to for as long as its owner — a sweep runner — lives. It is
// safe for concurrent use: each key is built exactly once, by the first
// requester, outside the map lock, while concurrent requesters of the
// same key wait for that build. A hit allocates nothing. The zero value
// is ready to use.
type SharedPlans struct {
	mu      sync.Mutex
	entries map[sharedKey]*sharedEntry
}

// sharedKey is a MemoKey plus the platform values a shared plan reads.
type sharedKey struct {
	MemoKey
	n    int
	b, s float64
}

type sharedEntry struct {
	once sync.Once
	val  any
	err  error
}

// entry returns k's entry, creating an unbuilt one on first request.
func (sp *SharedPlans) entry(k sharedKey) *sharedEntry {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.entries[k]
	if e == nil {
		if sp.entries == nil {
			sp.entries = make(map[sharedKey]*sharedEntry)
		}
		e = &sharedEntry{}
		sp.entries[k] = e
	}
	return e
}

// Memoizer is implemented by schedulers whose dispatcher construction
// has an expensive, repetition-independent part worth caching. The
// contract: NewDispatcherMemo(pr, m) must return a dispatcher that
// behaves identically to NewDispatcher(pr)'s — byte-identical simulation
// results — whether the memo hits, misses, or is nil.
type Memoizer interface {
	Scheduler
	NewDispatcherMemo(pr *Problem, m *Memo) (engine.Dispatcher, error)
}

// Replayable is implemented by dispatchers that can rewind to their
// just-constructed state. The contract: after Reset, the dispatcher's
// observable behaviour — the exact chunk sequence under identical View
// inputs — must be indistinguishable from a freshly constructed
// dispatcher for the same problem. The sweep batch path uses it to build
// one prototype per (configuration, error) and replay it across every
// repetition instead of reconstructing Reps times; dispatchers that do
// not implement Replayable are simply rebuilt per repetition (the
// pre-batch behaviour — always correct, just slower). Composite
// dispatchers must reset every phase; demand dispatchers reset their
// sizer through ChunkSizer.Reset.
type Replayable interface {
	engine.Dispatcher
	// Reset rewinds the dispatcher to its post-construction state.
	Reset()
}

// Static plays a precalculated plan. With OutOfOrder set, the head of the
// plan may be bypassed in favour of the earliest planned chunk whose
// destination worker is idle — the paper's phase-1 revision of UMR
// ("send a new chunk of data to a worker if it finishes prematurely").
type Static struct {
	Plan       []engine.Chunk
	OutOfOrder bool
	// MaxPending, when positive, throttles dispatch to just-in-time: a
	// chunk is only sent to a worker with fewer than MaxPending chunks
	// queued or in flight. Adaptive schedulers use it so that the tail of
	// the plan is still withdrawable when their measurement completes;
	// zero (the default) streams the plan as fast as the port allows.
	MaxPending int
	sent       []bool
	remaining  int
	started    bool
	// firstUnsent is a cursor past the fully-sent prefix of the plan, so
	// Next does not rescan dispatched entries on every call (long plans
	// would otherwise cost O(n²) over a run).
	firstUnsent int
	events      obs.Sink
}

// AttachEvents implements obs.Emitter: out-of-order serves are emitted as
// dispatch decisions.
func (s *Static) AttachEvents(sink obs.Sink) { s.events = sink }

// NewStatic returns a dispatcher that plays plan in order.
func NewStatic(plan []engine.Chunk, outOfOrder bool) *Static {
	return &Static{
		Plan:       plan,
		OutOfOrder: outOfOrder,
		sent:       make([]bool, len(plan)),
		remaining:  len(plan),
	}
}

// eligible reports whether the throttle admits sending to worker w now.
func (s *Static) eligible(v *engine.View, w int) bool {
	if s.MaxPending <= 0 {
		return true
	}
	ws := v.Workers[w]
	return ws.Queued+ws.InFlight < s.MaxPending
}

// Next implements engine.Dispatcher.
func (s *Static) Next(v *engine.View) (engine.Chunk, bool) {
	if s.remaining == 0 {
		return engine.Chunk{}, false
	}
	// Advance the cursor past the sent prefix (amortised O(1) per
	// dispatch), then scan for the first unsent, throttle-eligible entry.
	for s.firstUnsent < len(s.sent) && s.sent[s.firstUnsent] {
		s.firstUnsent++
	}
	head := -1
	for i := s.firstUnsent; i < len(s.Plan); i++ {
		if !s.sent[i] && s.eligible(v, s.Plan[i].Worker) {
			head = i
			break
		}
	}
	if head < 0 {
		return engine.Chunk{}, false // throttled: wait for completions
	}
	pick := head
	// Before anything has been computed (the initial ramp-up), the plan
	// order is authoritative even when all workers look idle; premature
	// finishes can only exist once execution has started. With no worker
	// idle nothing can be promoted, so the scan is skipped.
	if s.OutOfOrder && s.started {
		if !v.WorkerIdle(s.Plan[head].Worker) && v.FirstIdle() >= 0 {
			for i := head + 1; i < len(s.Plan); i++ {
				if s.sent[i] {
					continue
				}
				if v.WorkerIdle(s.Plan[i].Worker) {
					pick = i
					break
				}
			}
		}
	}
	if pick != head && s.events != nil {
		c := s.Plan[pick]
		s.events.Emit(obs.Event{
			Kind: obs.KindDispatchDecision, Time: v.Time, Worker: c.Worker,
			Seq: -1, Size: c.Size, Round: c.Round, Phase: c.Phase,
			Reason: "out-of-order serve: planned head's worker busy, promoting chunk for idle worker",
		})
	}
	s.sent[pick] = true
	s.remaining--
	s.started = true
	return s.Plan[pick], true
}

// Remaining returns how many planned chunks have not been dispatched.
func (s *Static) Remaining() int { return s.remaining }

// Exhausted implements engine.ExhaustedDispatcher: with every plan entry
// dispatched or withdrawn, Next can never produce another chunk (only a
// between-runs Reset rewinds the plan).
func (s *Static) Exhausted() bool { return s.remaining == 0 }

// Reset implements Replayable: the plan rewinds to fully unsent,
// including entries withdrawn by TrimTail.
func (s *Static) Reset() {
	clear(s.sent)
	s.remaining = len(s.Plan)
	s.started = false
	s.firstUnsent = 0
}

// RemainingWork sums the sizes of the undispatched chunks.
func (s *Static) RemainingWork() float64 {
	total := 0.0
	for i, done := range s.sent {
		if !done {
			total += s.Plan[i].Size
		}
	}
	return total
}

// TrimTail withdraws undispatched chunks from the end of the plan until
// withdrawing another would exceed target, and returns the total amount
// withdrawn (possibly 0). Adaptive schedulers use it to re-route the tail
// of a precalculated plan to a different policy once the error magnitude
// has been measured.
func (s *Static) TrimTail(target float64) float64 {
	removed := 0.0
	for i := len(s.Plan) - 1; i >= 0 && s.remaining > 0; i-- {
		if s.sent[i] {
			continue
		}
		if removed+s.Plan[i].Size > target+1e-12 {
			break
		}
		removed += s.Plan[i].Size
		s.sent[i] = true
		s.remaining--
	}
	return removed
}

// ChunkSizer yields successive chunk sizes for a demand-driven policy,
// given the receiving worker and the remaining workload. Returning the
// full remaining amount (or more — the dispatcher clamps) ends the run in
// one chunk.
type ChunkSizer interface {
	// NextSize returns the size of the next chunk to allocate to worker
	// given the remaining workload (> 0); weighted policies size chunks
	// by the worker's speed.
	NextSize(worker int, remaining float64) float64
	// Reset rewinds the sizer's batch/sequence progression to its
	// initial state, for Demand.Reset; stateless sizers do nothing.
	Reset()
}

// Demand dispatches to idle workers only — the greedy, self-scheduling
// style shared by Factoring, FSC and RUMR's phase 2. Chunk sizes come from
// the Sizer; every chunk is clamped to the remaining work, floored at
// MinChunk, and the final crumb is absorbed to keep totals exact.
type Demand struct {
	Sizer    ChunkSizer
	MinChunk float64
	// Phase is the scheduler-defined phase number stamped on every
	// emitted chunk (RUMR labels its demand-driven phase with 2); batch
	// numbers go in the chunk's Round field.
	Phase     int
	remaining float64
	total     float64
	// initial is the constructed pool size, recorded so Reset can rewind
	// past any units transferred in via Add.
	initial float64
	batch   int
	events  obs.Sink
	// lastBatches tracks the sizer's batch counter so batch boundaries can
	// be emitted as dispatch decisions.
	lastBatches int
}

// batchSizer is implemented by sizers that allocate in batches (Factoring
// and its weighted variant); Batches reports how many batches have been
// started so far.
type batchSizer interface {
	Batches() int
}

// AttachEvents implements obs.Emitter: batch boundaries of batching sizers
// are emitted as dispatch decisions.
func (d *Demand) AttachEvents(sink obs.Sink) { d.events = sink }

// NewDemand returns a demand-driven dispatcher over total units.
func NewDemand(total float64, sizer ChunkSizer, minChunk float64, phase int) *Demand {
	return &Demand{Sizer: sizer, MinChunk: minChunk, Phase: phase, remaining: total, total: total, initial: total}
}

// Remaining returns the work not yet dispatched.
func (d *Demand) Remaining() float64 { return d.remaining }

// Reset implements Replayable: the pool rewinds to its constructed size
// (units later transferred in via Add are forgotten) and the sizer's
// progression restarts.
func (d *Demand) Reset() {
	d.remaining = d.initial
	d.total = d.initial
	d.batch = 0
	d.lastBatches = 0
	d.Sizer.Reset()
}

// Add transfers extra workload units into the demand-driven pool.
// Fault-tolerant schedulers use it to re-route work withdrawn from a
// static plan (TrimTail) — e.g. the tail of a UMR plan whose workers
// crashed — so the units are re-sized by this policy instead.
func (d *Demand) Add(extra float64) {
	if extra <= 0 {
		return
	}
	d.remaining += extra
	d.total += extra
}

// Exhausted implements engine.ExhaustedDispatcher: the pool is empty.
// Wrappers that may still Add work mid-run (fault-tolerance transfers)
// must gate their own Exhausted on that possibility — the engine only
// consults the top-level dispatcher it was handed.
func (d *Demand) Exhausted() bool { return d.remaining <= 0 }

// Next implements engine.Dispatcher: serve the first idle worker.
func (d *Demand) Next(v *engine.View) (engine.Chunk, bool) {
	if d.remaining <= 0 {
		return engine.Chunk{}, false
	}
	target := v.FirstIdle()
	if target < 0 {
		return engine.Chunk{}, false
	}
	size := d.Sizer.NextSize(target, d.remaining)
	if size < d.MinChunk {
		size = d.MinChunk
	}
	if size > d.remaining {
		size = d.remaining
	}
	// Absorb a final crumb that would be smaller than half the minimum
	// chunk (or floating-point dust) into this chunk.
	if left := d.remaining - size; left < d.MinChunk/2 || left < 1e-9*d.total {
		size = d.remaining
	}
	if d.events != nil {
		if bs, ok := d.Sizer.(batchSizer); ok {
			if nb := bs.Batches(); nb != d.lastBatches {
				d.lastBatches = nb
				d.events.Emit(obs.Event{
					Kind: obs.KindDispatchDecision, Time: v.Time, Worker: target,
					Seq: -1, Size: size, Round: nb - 1, Phase: d.Phase,
					Reason: "factoring: new batch, chunk size halved from remaining work",
				})
			}
		}
	}
	d.remaining -= size
	d.batch++
	return engine.Chunk{Worker: target, Size: size, Round: d.batch - 1, Phase: d.Phase}, true
}
