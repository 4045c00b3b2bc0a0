package obs

import "testing"

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind = %q", Kind(200).String())
	}
}

func TestFunc(t *testing.T) {
	var got []Kind
	f := Func(func(e Event) { got = append(got, e.Kind) })
	f.Emit(Event{Kind: KindSendStart})
	f.Emit(Event{Kind: KindRunDone})
	if len(got) != 2 || got[0] != KindSendStart || got[1] != KindRunDone {
		t.Fatalf("func sink delivered %v", got)
	}
}

// Emitting must not allocate: a sink receives Event by value.
func TestEmitDoesNotAllocate(t *testing.T) {
	var seen int
	sinks := map[string]Sink{
		"nop":  Func(func(Event) {}),
		"func": Func(func(Event) { seen++ }),
	}
	e := Event{Kind: KindCompEnd, Time: 1.5, Worker: 3, Seq: 9, Size: 2, Reason: "x"}
	for name, s := range sinks {
		if n := testing.AllocsPerRun(100, func() { s.Emit(e) }); n != 0 {
			t.Errorf("%s sink: %v allocs per Emit", name, n)
		}
	}
}
