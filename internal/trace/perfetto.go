package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"rumr/internal/obs"
)

// This file exports runs in the Chrome trace-event JSON format, which
// ui.perfetto.dev (and chrome://tracing) load directly. The mapping:
//
//   - one process (pid 1) per run
//   - tid 0 is the master's network port; each send is a slice there
//   - tid w+1 is worker w; each computation is a slice there
//   - phase transitions and dispatch decisions are instant events
//
// Timestamps are simulated seconds scaled to microseconds, the unit the
// viewers assume. Send slices are color-keyed by phase so RUMR's
// phase 1 → phase 2 handoff is visible at a glance.

const perfettoPid = 1

// perfettoEvent is one entry of the traceEvents array. Field names follow
// the trace-event format spec.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usec(seconds float64) int64 { return int64(math.Round(seconds * 1e6)) }

// phaseColor color-keys slices by scheduler phase using the viewers'
// reserved palette names: phase 1 green, phase 2 orange, anything else
// neutral.
func phaseColor(phase int) string {
	switch phase {
	case 1:
		return "thread_state_running"
	case 2:
		return "thread_state_iowait"
	default:
		return "generic_work"
	}
}

func processMeta(pid int, name string) perfettoEvent {
	return perfettoEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}}
}

func threadMeta(pid, tid int) perfettoEvent {
	name := "master port"
	if tid > 0 {
		name = fmt.Sprintf("worker %d", tid-1)
	}
	return perfettoEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

// WritePerfetto emits the trace in Chrome trace-event JSON for a platform
// of n workers. Load the output in ui.perfetto.dev to inspect the
// schedule interactively; Gantt remains the terminal-friendly view.
func (tr *Trace) WritePerfetto(w io.Writer, n int) error {
	events := make([]perfettoEvent, 0, 3*len(tr.Records)+n+2)
	events = append(events, processMeta(perfettoPid, "rumr run"), threadMeta(perfettoPid, 0))
	for wi := 0; wi < n; wi++ {
		events = append(events, threadMeta(perfettoPid, wi+1))
	}
	for i, r := range tr.Records {
		args := map[string]any{
			"chunk": i, "worker": r.Worker, "size": r.Size,
			"round": r.Round, "phase": r.Phase,
		}
		events = append(events, perfettoEvent{
			Name: fmt.Sprintf("send #%d → w%d", i, r.Worker), Ph: "X",
			Ts: usec(r.SendStart), Dur: usec(r.SendEnd - r.SendStart),
			Pid: perfettoPid, Tid: 0, Cname: phaseColor(r.Phase), Args: args,
		}, perfettoEvent{
			Name: fmt.Sprintf("chunk #%d (%.4g units)", i, r.Size), Ph: "X",
			Ts: usec(r.CompStart), Dur: usec(r.CompEnd - r.CompStart),
			Pid: perfettoPid, Tid: r.Worker + 1, Cname: phaseColor(r.Phase), Args: args,
		})
	}
	timeline := tr.PhaseTimeline()
	for _, p := range tr.Phases() {
		events = append(events, perfettoEvent{
			Name: fmt.Sprintf("phase %d starts", p), Ph: "i",
			Ts: usec(timeline[p][0]), Pid: perfettoPid, Scope: "g",
			Args: map[string]any{"phase": p},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}{events})
}

// PerfettoSink streams engine events (see internal/obs) straight into
// Chrome trace-event JSON, so a live run can be exported without
// recording a full Trace first — and unlike the post-hoc WritePerfetto it
// also captures dispatcher decisions and phase transitions. Send and
// compute slices arrive as begin/end pairs ("B"/"E"), which the viewers
// match by pid/tid. Close must be called to finish the JSON document.
//
// The sink is not safe for concurrent use, matching the engine's
// single-goroutine event loop.
type PerfettoSink struct {
	w       io.Writer
	err     error
	any     bool
	threads map[int]bool // tids whose metadata has been written
}

// NewPerfettoSink starts a trace-event document on w as pid 1 named
// "rumr run" — the single-run layout.
func NewPerfettoSink(w io.Writer) *PerfettoSink {
	s := &PerfettoSink{w: w, threads: make(map[int]bool)}
	_, s.err = io.WriteString(w, "{\"traceEvents\":[\n")
	s.emit(processMeta(perfettoPid, "rumr run"))
	return s
}

func (s *PerfettoSink) emit(e perfettoEvent) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if s.any {
		b = append([]byte(",\n"), b...)
	}
	s.any = true
	_, s.err = s.w.Write(b)
}

// thread lazily announces a track the first time an event lands on it.
func (s *PerfettoSink) thread(tid int) {
	if !s.threads[tid] {
		s.threads[tid] = true
		s.emit(threadMeta(perfettoPid, tid))
	}
}

func (s *PerfettoSink) slice(ph string, tid int, e obs.Event, name string) {
	s.thread(tid)
	ev := perfettoEvent{Name: name, Ph: ph, Ts: usec(e.Time), Pid: perfettoPid, Tid: tid}
	if ph == "B" {
		ev.Cname = phaseColor(e.Phase)
		ev.Args = map[string]any{
			"chunk": e.Seq, "worker": e.Worker, "size": e.Size,
			"round": e.Round, "phase": e.Phase,
		}
	}
	s.emit(ev)
}

func (s *PerfettoSink) instant(e obs.Event, name string) {
	s.emit(perfettoEvent{Name: name, Ph: "i", Ts: usec(e.Time), Pid: perfettoPid,
		Scope: "g", Args: map[string]any{"reason": e.Reason, "phase": e.Phase}})
}

// Emit implements obs.Sink.
func (s *PerfettoSink) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindSendStart:
		s.slice("B", 0, e, fmt.Sprintf("send #%d → w%d", e.Seq, e.Worker))
	case obs.KindSendEnd:
		s.slice("E", 0, e, fmt.Sprintf("send #%d → w%d", e.Seq, e.Worker))
	case obs.KindCompStart:
		s.slice("B", e.Worker+1, e, fmt.Sprintf("chunk #%d (%.4g units)", e.Seq, e.Size))
	case obs.KindCompEnd:
		s.slice("E", e.Worker+1, e, fmt.Sprintf("chunk #%d (%.4g units)", e.Seq, e.Size))
	case obs.KindPhaseTransition:
		s.instant(e, fmt.Sprintf("phase %d starts", e.Phase))
	case obs.KindDispatchDecision:
		s.instant(e, "dispatch decision")
	case obs.KindRunDone:
		s.instant(e, "run done")
	}
	// KindArrive is deliberately dropped: arrivals sit between a send slice
	// and a compute slice and add noise without a track of their own.
}

// Close finishes the JSON document and reports the first write error.
func (s *PerfettoSink) Close() error {
	if s.err != nil {
		return s.err
	}
	_, s.err = io.WriteString(s.w, "\n]}\n")
	return s.err
}
