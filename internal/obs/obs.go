// Package obs is the structured event stream of the simulation engine:
// one typed Event per state change (send start/end, arrival, compute
// start/end, dispatch decisions, phase transitions, run completion),
// delivered synchronously to a Sink.
//
// The engine guards every emission with a nil check, so a run without a
// sink pays one predictable branch per potential event and nothing else;
// Event is a plain value struct, so emitting through a sink allocates
// nothing either.
package obs

// Kind discriminates event types.
type Kind uint8

const (
	// KindSendStart marks the master's port becoming busy with a chunk.
	KindSendStart Kind = iota
	// KindSendEnd marks the master's port becoming free again.
	KindSendEnd
	// KindArrive marks the worker holding the chunk's last byte.
	KindArrive
	// KindCompStart marks a worker beginning to compute a chunk.
	KindCompStart
	// KindCompEnd marks a worker finishing a chunk.
	KindCompEnd
	// KindDispatchDecision marks a noteworthy scheduling decision (an
	// out-of-order serve, a new factoring batch); Reason says why.
	KindDispatchDecision
	// KindPhaseTransition marks a scheduler switching phases (RUMR's
	// phase 1 -> 2 handoff); Reason says what triggered it.
	KindPhaseTransition
	// KindRunDone marks the end of a run; Time is the makespan, Seq the
	// number of dispatched chunks and Size the total dispatched work.
	KindRunDone
	// KindWorkerCrash marks a worker dying (its queued and in-progress
	// work is lost; each loss is a separate KindChunkLost event).
	KindWorkerCrash
	// KindWorkerRejoin marks a crashed worker coming back.
	KindWorkerRejoin
	// KindLinkDown marks a master->worker link outage beginning.
	KindLinkDown
	// KindLinkUp marks the link recovering.
	KindLinkUp
	// KindSlowdown marks a worker's compute slowdown changing; Reason
	// carries the factor (1 = recovered).
	KindSlowdown
	// KindChunkLost marks one chunk's work being lost (crash, loss in
	// transit, or completion timeout); Reason says how.
	KindChunkLost
	// KindRedispatch marks the engine re-sending a lost chunk to a live
	// worker; Attempt is the retry number.
	KindRedispatch

	numKinds
)

var kindNames = [numKinds]string{
	"send-start", "send-end", "arrive", "comp-start", "comp-end",
	"dispatch-decision", "phase-transition", "run-done",
	"worker-crash", "worker-rejoin", "link-down", "link-up", "slowdown",
	"chunk-lost", "redispatch",
}

// String returns the event kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one simulation state change. Chunk-lifecycle events carry the
// chunk's identity (Seq is its dispatch index) and tags; decision events
// carry a Reason so a trace explains why, not just what.
type Event struct {
	// Kind discriminates the event.
	Kind Kind
	// Time is the virtual time of the state change (the makespan for
	// KindRunDone).
	Time float64
	// Worker is the destination worker index, or -1 for run-wide events.
	Worker int
	// Seq is the chunk's dispatch index, or -1 when the event is not tied
	// to one chunk.
	Seq int
	// Size is the chunk size in workload units (the total dispatched work
	// for KindRunDone).
	Size float64
	// Round and Phase mirror the chunk's scheduler tags.
	Round, Phase int
	// Attempt is the chunk's dispatch attempt: 0 for the original send,
	// incremented on every fault-recovery re-dispatch.
	Attempt int
	// Reason explains dispatch decisions and phase transitions.
	Reason string
}

// Sink consumes events. Emit is called synchronously from the simulation
// loop, so implementations must be cheap; a sink used by one Run needs no
// locking (the engine is single-goroutine), but sinks shared across
// concurrent runs must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// Emitter is implemented by dispatchers that emit their own events
// (dispatch decisions, phase transitions). The engine attaches its
// configured sink to the dispatcher before the run starts.
type Emitter interface {
	AttachEvents(Sink)
}

// Func adapts a function to the Sink interface.
type Func func(Event)

// Emit implements Sink.
func (f Func) Emit(e Event) { f(e) }
