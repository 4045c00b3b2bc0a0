package tss

import (
	"math"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

func run(t *testing.T, s Scheduler, total float64) *engine.Result {
	t.Helper()
	pr := &sched.Problem{
		Platform: platform.Homogeneous(4, 1, 16, 0.1, 0.1),
		Total:    total,
		MinUnit:  1,
	}
	d, err := s.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-total) > 1e-6 {
		t.Fatalf("dispatched %v of %v", res.DispatchedWork, total)
	}
	if err := res.Trace.Validate(pr.Platform, total); err != nil {
		t.Fatal(err)
	}
	return &res
}

func TestLinearDecrease(t *testing.T) {
	res := run(t, Scheduler{}, 1000)
	recs := res.Trace.Records
	// First chunk = W/(2N) = 125.
	if math.Abs(recs[0].Size-125) > 1e-9 {
		t.Fatalf("first chunk = %v, want 125", recs[0].Size)
	}
	// Constant negative difference until the floor / final clamp.
	if len(recs) > 3 {
		d1 := recs[1].Size - recs[0].Size
		for i := 2; i < len(recs)-1; i++ {
			d := recs[i].Size - recs[i-1].Size
			if recs[i].Size <= 1+1e-9 {
				break // reached the floor
			}
			if math.Abs(d-d1) > 1e-9 {
				t.Fatalf("difference changed at chunk %d: %v vs %v", i, d, d1)
			}
		}
		if d1 >= 0 {
			t.Fatalf("chunks should decrease, difference = %v", d1)
		}
	}
}

func TestDegenerateFirstBelowLast(t *testing.T) {
	// W/(2N) = 6/8 = 0.75 lies below the 1-unit minimum, so the sequence
	// would grow toward Last; the minimal-unit floor keeps it flat.
	res := run(t, Scheduler{}, 6)
	for i, r := range res.Trace.Records[:len(res.Trace.Records)-1] {
		if math.Abs(r.Size-1) > 1e-9 {
			t.Fatalf("chunk %d = %v, want flat 1", i, r.Size)
		}
	}
}

func TestTinyWorkloadSingleChunk(t *testing.T) {
	res := run(t, Scheduler{}, 1.2)
	if res.Chunks != 1 {
		t.Fatalf("chunks = %d", res.Chunks)
	}
}

func TestNameAndValidation(t *testing.T) {
	if (Scheduler{}).Name() != "TSS" {
		t.Fatal("name")
	}
	if _, err := (Scheduler{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
