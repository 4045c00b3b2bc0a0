package engine

import (
	"testing"

	"rumr/internal/platform"
)

// ExpectedChunks is the no-regrow hint for traced multi-job runs: when the
// hint matches the actual chunk count — a repeat of the previous
// repetition, or a planner's PlannedChunks sum — the trace buffer must be
// sized once and never reallocated. Pinned on the central multi-job
// platform (N=20, R=1.8, CLat=0.3, NLat=0.9).
func TestRunMultiTraceBufferDoesNotRegrow(t *testing.T) {
	p := platform.Homogeneous(20, 1, 1.8*20, 0.3, 0.9)
	jobs := func() []Job {
		js := make([]Job, 4)
		for j := range js {
			js[j] = Job{
				Arrival:    float64(j) * 10,
				Weight:     1,
				Total:      500,
				Dispatcher: &demandDispatcher{remaining: 500, size: 12.5},
			}
		}
		return js
	}
	first, err := RunMulti(p, jobs(), MultiOptions{RecordTrace: true, Policy: WeightedShare()})
	if err != nil {
		t.Fatal(err)
	}
	if first.Chunks == 0 {
		t.Fatal("first run dispatched no chunks")
	}
	hinted, err := RunMulti(p, jobs(), MultiOptions{
		RecordTrace:    true,
		Policy:         WeightedShare(),
		ExpectedChunks: first.Chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Chunks != first.Chunks {
		t.Fatalf("hinted run dispatched %d chunks, first run %d", hinted.Chunks, first.Chunks)
	}
	if got := cap(hinted.Trace.Records); got != first.Chunks {
		t.Fatalf("trace buffer cap %d after ExpectedChunks=%d hint: buffer regrew", got, first.Chunks)
	}
}
