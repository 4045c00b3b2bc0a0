package engine

import (
	"testing"

	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

func TestCountersAccumulate(t *testing.T) {
	p := platform.Homogeneous(4, 1, 16, 0.1, 0.1)
	src := rng.New(7)
	var ctrs Counters
	opts := Options{
		Counters:  &ctrs,
		CommModel: perferr.NewTruncNormal(0.3, src.Split()),
		CompModel: perferr.NewTruncNormal(0.3, src.Split()),
	}
	d := &resetDemand{total: 100, size: 5}
	d.reset()
	res, err := Run(p, d, opts)
	if err != nil {
		t.Fatal(err)
	}

	if ctrs.EventsPopped != int64(res.Events) {
		t.Fatalf("EventsPopped = %d, Result.Events = %d", ctrs.EventsPopped, res.Events)
	}
	if ctrs.EventsPushed < ctrs.EventsPopped || ctrs.EventsPushed == 0 {
		t.Fatalf("EventsPushed = %d vs popped %d", ctrs.EventsPushed, ctrs.EventsPopped)
	}
	if ctrs.MaxHeapDepth <= 0 {
		t.Fatalf("MaxHeapDepth = %d", ctrs.MaxHeapDepth)
	}
	// The dispatcher's View aliases the engine's worker states:
	// SyncViewCopies counts one per consult, and no byte is copied.
	if ctrs.SyncViewCopies == 0 || ctrs.SyncViewCopies != d.consults || ctrs.SyncViewBytes != 0 {
		t.Fatalf("syncView: %d copies, %d bytes for %d consults",
			ctrs.SyncViewCopies, ctrs.SyncViewBytes, d.consults)
	}
	if ctrs.EventsReplaced > ctrs.EventsPushed {
		t.Fatalf("EventsReplaced = %d of %d pushed", ctrs.EventsReplaced, ctrs.EventsPushed)
	}
	// Both models are truncated normals; each chunk draws once per leg.
	if ctrs.TruncNormalDraws != int64(2*res.Chunks) || ctrs.UniformDraws != 0 || ctrs.OtherDraws != 0 {
		t.Fatalf("draws = %d/%d/%d for %d chunks",
			ctrs.TruncNormalDraws, ctrs.UniformDraws, ctrs.OtherDraws, res.Chunks)
	}
	if ctrs.Redispatches != 0 {
		t.Fatalf("fault-free run counted %d redispatches", ctrs.Redispatches)
	}

	// A second run adds on top — Counters accumulate across a cell.
	first := ctrs
	d.reset()
	if _, err := Run(p, d, opts); err != nil {
		t.Fatal(err)
	}
	if ctrs.EventsPopped <= first.EventsPopped || ctrs.SyncViewCopies <= first.SyncViewCopies {
		t.Fatalf("counters did not accumulate: %+v -> %+v", first, ctrs)
	}

	// Send ends stay out of the DES heap, so the run above (TLat = 0, no
	// chunk ever queued) takes no replace-top fill: a compute end's
	// action only hands the freed port slot to a send. Here four chunks
	// per worker are sent back to back and queue behind the first, so each
	// compute end but the last on a worker fills the just-fired root's slot
	// with the next chunk's compute end.
	plan := make([]Chunk, 4*p.N())
	for i := range plan {
		plan[i] = Chunk{Worker: i % p.N(), Size: 5}
	}
	var queued Counters
	res, err = Run(p, &listDispatcher{plan: plan}, Options{Counters: &queued})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(plan) - p.N()); queued.EventsReplaced < want || queued.EventsReplaced > queued.EventsPushed {
		t.Fatalf("EventsReplaced = %d of %d pushed, want at least %d", queued.EventsReplaced, queued.EventsPushed, want)
	}
	if queued.EventsPopped != int64(res.Events) || queued.EventsPushed < queued.EventsPopped {
		t.Fatalf("queued run: pushed %d, popped %d, %d events", queued.EventsPushed, queued.EventsPopped, res.Events)
	}
}

func TestCountersClassifyUniformDraws(t *testing.T) {
	p := platform.Homogeneous(4, 1, 16, 0.1, 0.1)
	src := rng.New(7)
	var ctrs Counters
	res, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, Options{
		Counters:  &ctrs,
		CommModel: perferr.NewUniform(0.3, src.Split()),
		CompModel: perferr.NewUniform(0.3, src.Split()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctrs.UniformDraws != int64(2*res.Chunks) || ctrs.TruncNormalDraws != 0 {
		t.Fatalf("draws = %d uniform / %d trunc-normal for %d chunks",
			ctrs.UniformDraws, ctrs.TruncNormalDraws, res.Chunks)
	}

	// The perfect model draws nothing.
	ctrs = Counters{}
	if _, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, Options{Counters: &ctrs}); err != nil {
		t.Fatal(err)
	}
	if ctrs.TruncNormalDraws+ctrs.UniformDraws+ctrs.OtherDraws != 0 {
		t.Fatalf("perfect model drew: %+v", ctrs)
	}
	if ctrs.EventsPopped == 0 {
		t.Fatal("counters dead without an error model")
	}
}

// Identical seeds must produce identical counters — telemetry is part of
// the deterministic replay story, not a wall-clock artifact.
func TestCountersDeterministic(t *testing.T) {
	run := func() Counters {
		p := platform.Homogeneous(4, 1, 16, 0.1, 0.1)
		src := rng.New(42)
		var ctrs Counters
		_, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, Options{
			Counters:  &ctrs,
			CommModel: perferr.NewTruncNormal(0.3, src.Split()),
			CompModel: perferr.NewTruncNormal(0.3, src.Split()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrs
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("counters differ across identical runs:\n%+v\n%+v", a, b)
	}
}
