package engine

import (
	"testing"
	"unsafe"

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
	res, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, opts)
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
	// SyncViewBytes counts the bytes actually copied by the incremental
	// sync: positive (the first sync copies every worker), a whole number
	// of worker-state structs, and strictly less than copies × n × size —
	// the full-copy volume the dirty tracking exists to avoid.
	wsBytes := int64(unsafe.Sizeof(WorkerState{}))
	if ctrs.SyncViewCopies == 0 || ctrs.SyncViewBytes < 4*wsBytes ||
		ctrs.SyncViewBytes%wsBytes != 0 ||
		ctrs.SyncViewBytes >= ctrs.SyncViewCopies*wsBytes*4 {
		t.Fatalf("syncView: %d copies, %d bytes (4 workers × %d B each)",
			ctrs.SyncViewCopies, ctrs.SyncViewBytes, wsBytes)
	}
	if ctrs.EventsReplaced == 0 || ctrs.EventsReplaced > ctrs.EventsPushed {
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
	if _, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, opts); err != nil {
		t.Fatal(err)
	}
	if ctrs.EventsPopped <= first.EventsPopped || ctrs.SyncViewCopies <= first.SyncViewCopies {
		t.Fatalf("counters did not accumulate: %+v -> %+v", first, ctrs)
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
