package engine

import (
	"testing"

	"rumr/internal/obs"
	"rumr/internal/platform"
)

// TestEventStreamSingleChunk pins the full event sequence for one chunk on
// one worker: the lifecycle events come in causal order with matching
// timestamps and sequence numbers, and the run closes with RunDone.
func TestEventStreamSingleChunk(t *testing.T) {
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 2, B: 4, CLat: 0.3, NLat: 0.1, TLat: 0.25},
	}}
	var got []obs.Event
	res, err := Run(p, &listDispatcher{plan: []Chunk{{Worker: 0, Size: 8, Round: 1, Phase: 1}}},
		Options{Events: obs.Func(func(e obs.Event) { got = append(got, e) })})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []obs.Kind{
		obs.KindSendStart, obs.KindSendEnd, obs.KindArrive,
		obs.KindCompStart, obs.KindCompEnd, obs.KindRunDone,
	}
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(wantKinds), got)
	}
	for i, e := range got {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if i > 0 && e.Time < got[i-1].Time {
			t.Fatalf("event %d (%v) at %v before prior at %v", i, e.Kind, e.Time, got[i-1].Time)
		}
	}
	for _, e := range got[:5] {
		if e.Worker != 0 || e.Seq != 0 || e.Size != 8 || e.Round != 1 || e.Phase != 1 {
			t.Fatalf("chunk event fields = %+v", e)
		}
	}
	// nLat, +size/B, +tLat, +cLat+size/S.
	for i, want := range []float64{0, 0.1 + 2, 0.1 + 2 + 0.25, 0.1 + 2 + 0.25, 0.1 + 2 + 0.25 + 0.3 + 4} {
		if got[i].Time != want {
			t.Errorf("event %d (%v) at %v, want %v", i, got[i].Kind, got[i].Time, want)
		}
	}
	done := got[5]
	if done.Time != res.Makespan || done.Seq != res.Chunks || done.Size != res.DispatchedWork || done.Worker != -1 {
		t.Fatalf("RunDone = %+v, result = %+v", done, res)
	}
}

// TestEventStreamCounts checks per-kind bookkeeping on a demand-driven run:
// every dispatched chunk produces exactly one event of each lifecycle kind.
func TestEventStreamCounts(t *testing.T) {
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 1, B: 10, TLat: 0.01},
		{S: 2, B: 10, TLat: 0.01},
		{S: 4, B: 10, TLat: 0.01},
	}}
	counts := map[obs.Kind]int{}
	res, err := Run(p, &demandDispatcher{remaining: 100, size: 5},
		Options{Events: obs.Func(func(e obs.Event) { counts[e.Kind]++ })})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []obs.Kind{obs.KindSendStart, obs.KindSendEnd, obs.KindArrive, obs.KindCompStart, obs.KindCompEnd} {
		if counts[k] != res.Chunks {
			t.Errorf("%v count = %d, want %d", k, counts[k], res.Chunks)
		}
	}
	if counts[obs.KindRunDone] != 1 {
		t.Errorf("RunDone count = %d", counts[obs.KindRunDone])
	}
}

func benchPlatform() *platform.Platform {
	return &platform.Platform{Workers: []platform.Worker{
		{S: 1, B: 10, CLat: 0.01, NLat: 0.01, TLat: 0.01},
		{S: 2, B: 10, CLat: 0.01, NLat: 0.01, TLat: 0.01},
		{S: 4, B: 10, CLat: 0.01, NLat: 0.01, TLat: 0.01},
		{S: 8, B: 10, CLat: 0.01, NLat: 0.01, TLat: 0.01},
	}}
}

func benchRun(b *testing.B, opts Options) {
	p := benchPlatform()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, &demandDispatcher{remaining: 500, size: 5}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineNoSink is the baseline: Options.Events == nil, the only
// observability cost is one nil check per state change.
func BenchmarkEngineNoSink(b *testing.B) { benchRun(b, Options{}) }

// nopSink discards every event.
type nopSink struct{}

func (nopSink) Emit(obs.Event) {}

// BenchmarkEngineNopSink measures the interface-call overhead of an
// attached sink that discards everything.
func BenchmarkEngineNopSink(b *testing.B) { benchRun(b, Options{Events: nopSink{}}) }
