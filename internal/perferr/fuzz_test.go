package perferr

import (
	"math"
	"testing"

	"rumr/internal/rng"
)

// FuzzStreamReplay checks that a replayed Pair perturbs exactly as a
// freshly split one: after any number of runs of any length, with zero
// predictions mixed in, every Perturb returns the bits that the per-run
// models a Pair replaces (newModel on two master.Split sources, comm
// first) return when split from the same master state. Bytes decode as
// ops:
//
//   - 0xF8–0xFF re-splits both pairs from the next master state (a new
//     repetition);
//   - 0xF0–0xF7 replays the pair under test and splits the reference
//     models afresh from the state the last split started from (the
//     next algorithm of the repetition);
//   - anything else perturbs, comm for an even byte and comp for an odd
//     one, a prediction of byte·0.37, or 0 when the byte is a multiple
//     of 5.
//
// Run it as a regular test (seed corpus) or with
// `go test -fuzz=FuzzStreamReplay ./internal/perferr/`.
func FuzzStreamReplay(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(77), []byte{2, 3, 0, 5, 9, 0xF0, 3, 2, 9, 8, 6, 0xF1, 4})
	f.Add(uint64(2), uint8(1), uint8(255), []byte{1, 1, 1, 0xF3, 1, 1, 1, 1, 1, 0xFF, 2, 0xF0, 2, 2})
	f.Add(uint64(3), uint8(0), uint8(0), []byte{1, 2, 0xF0, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, kindByte, magByte uint8, ops []byte) {
		kind := Kind(kindByte % 2)
		errMag := float64(magByte) / 255
		master := rng.New(seed)
		start := *master // the master state the last split began from
		var p Pair
		comm, comp := p.Split(master, kind, errMag)
		fresh := func() (Model, Model) {
			ref := start
			return newModel(kind, errMag, ref.Split()), newModel(kind, errMag, ref.Split())
		}
		refComm, refComp := fresh()
		for i, b := range ops {
			switch {
			case b >= 0xF8:
				start = *master
				comm, comp = p.Split(master, kind, errMag)
				refComm, refComp = fresh()
				continue
			case b >= 0xF0:
				p.Replay()
				refComm, refComp = fresh()
				continue
			}
			pred := 0.0
			if b%5 != 0 {
				pred = float64(b) * 0.37
			}
			m, rm := comm, refComm
			if b&1 == 1 {
				m, rm = comp, refComp
			}
			if got, want := m.Perturb(pred), rm.Perturb(pred); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d (byte %#x, kind %d, err %g): Perturb(%g) = %v, fresh split gives %v",
					i, b, kind, errMag, pred, got, want)
			}
		}
	})
}
