package perferr

import (
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/rng"
)

func TestPerfect(t *testing.T) {
	var m Perfect
	if m.Perturb(3.7) != 3.7 || m.Perturb(0) != 0 || m.Error() != 0 {
		t.Fatal("Perfect must be the identity")
	}
}

func TestTruncNormalZeroError(t *testing.T) {
	m := NewTruncNormal(0, rng.New(1))
	if m.Perturb(5) != 5 {
		t.Fatal("zero error must not perturb")
	}
}

func TestTruncNormalPositive(t *testing.T) {
	m := NewTruncNormal(0.5, rng.New(2))
	for i := 0; i < 100000; i++ {
		d := m.Perturb(1)
		if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("Perturb produced %v", d)
		}
		if d > 1/minRatio+1e-9 {
			t.Fatalf("Perturb produced %v, beyond the ratio floor bound", d)
		}
	}
}

func TestTruncNormalUnbiasedRatio(t *testing.T) {
	// The *ratio* predicted/effective must have mean ~1 and sd ~err.
	m := NewTruncNormal(0.3, rng.New(3))
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		eff := m.Perturb(1)
		ratio := 1 / eff
		sum += ratio
		sumSq += ratio * ratio
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("ratio mean = %v, want ~1", mean)
	}
	if math.Abs(sd-0.3) > 0.02 {
		t.Fatalf("ratio sd = %v, want ~0.3", sd)
	}
}

func TestTruncNormalScales(t *testing.T) {
	// Perturb must be linear in the predicted duration for a fixed draw:
	// two models with the same seed produce proportionally scaled outputs.
	a := NewTruncNormal(0.4, rng.New(9))
	b := NewTruncNormal(0.4, rng.New(9))
	x := a.Perturb(2)
	y := b.Perturb(4)
	if math.Abs(y/x-2) > 1e-9 {
		t.Fatalf("scaling broken: %v vs %v", x, y)
	}
}

func TestTruncNormalZeroDuration(t *testing.T) {
	m := NewTruncNormal(0.4, rng.New(5))
	if m.Perturb(0) != 0 {
		t.Fatal("zero predicted must map to zero effective")
	}
}

func TestUniformMoments(t *testing.T) {
	m := NewUniform(0.2, rng.New(6))
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		ratio := 1 / m.Perturb(1)
		sum += ratio
		sumSq += ratio * ratio
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("uniform ratio mean = %v", mean)
	}
	if math.Abs(sd-0.2) > 0.01 {
		t.Fatalf("uniform ratio sd = %v, want ~0.2", sd)
	}
	if m.Error() != 0.2 {
		t.Fatal("Error() should echo parameter")
	}
}

func TestUniformZero(t *testing.T) {
	m := NewUniform(0, rng.New(7))
	if m.Perturb(2.5) != 2.5 {
		t.Fatal("zero-error uniform must be identity")
	}
}

func TestRandomWalkReducesToTruncNormal(t *testing.T) {
	a := NewRandomWalk(0.3, 0, 0, rng.New(11))
	b := NewTruncNormal(0.3, rng.New(11))
	for i := 0; i < 100; i++ {
		// The walk draws one extra normal per step for the drift, so the
		// streams diverge; check only distributional sanity here and exact
		// equality of the first draw.
		x := a.Perturb(1)
		if x <= 0 {
			t.Fatalf("random walk produced %v", x)
		}
		if i == 0 {
			if y := b.Perturb(1); math.Abs(x-y) > 1e-12 {
				t.Fatalf("first draw differs: %v vs %v", x, y)
			}
		}
	}
}

func TestRandomWalkMeanStaysInSpan(t *testing.T) {
	m := NewRandomWalk(0.1, 0.5, 0.2, rng.New(13))
	for i := 0; i < 10000; i++ {
		m.Perturb(1)
		if m.mean < 0.8-1e-12 || m.mean > 1.2+1e-12 {
			t.Fatalf("mean %v escaped the span", m.mean)
		}
	}
}

func TestEstimatorRecoversError(t *testing.T) {
	src := rng.New(17)
	m := NewTruncNormal(0.25, src)
	var est Estimator
	for i := 0; i < 50000; i++ {
		eff := m.Perturb(1)
		est.Observe(1, eff)
	}
	if got := est.Estimate(); math.Abs(got-0.25) > 0.02 {
		t.Fatalf("estimate = %v, want ~0.25", got)
	}
	if est.N() != 50000 {
		t.Fatalf("N = %d", est.N())
	}
}

func TestEstimatorEdges(t *testing.T) {
	var est Estimator
	if est.Estimate() != 0 {
		t.Fatal("empty estimator must estimate 0")
	}
	est.Observe(1, 1)
	if est.Estimate() != 0 {
		t.Fatal("single observation must estimate 0")
	}
	est.Observe(0, 1)  // ignored
	est.Observe(1, 0)  // ignored
	est.Observe(-1, 2) // ignored
	if est.N() != 1 {
		t.Fatalf("invalid observations counted: N=%d", est.N())
	}
}

// Property: every model keeps durations positive and finite across the
// paper's whole error range.
func TestModelsAlwaysPositive(t *testing.T) {
	f := func(seed uint64, errByte uint8) bool {
		errMag := float64(errByte) / 255 // [0, 1]
		src := rng.New(seed)
		models := []Model{
			Perfect{},
			NewTruncNormal(errMag, src.Split()),
			NewUniform(errMag, src.Split()),
			NewRandomWalk(errMag, 0.01, 0.3, src.Split()),
		}
		for _, m := range models {
			for i := 0; i < 20; i++ {
				d := m.Perturb(1.5)
				if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Pair split from a master draws exactly what per-run models built on
// master.Split() draw, comm first, and leaves master in the same state.
func TestPairMatchesSplitModels(t *testing.T) {
	for _, kind := range []Kind{NormalError, UniformError} {
		for _, errMag := range []float64{0, 0.3} {
			want := rng.NewFrom(7, 11)
			wantComm, wantComp := newModel(kind, errMag, want.Split()), newModel(kind, errMag, want.Split())
			got := rng.NewFrom(7, 11)
			var p Pair
			comm, comp := p.Split(got, kind, errMag)
			for i := 0; i < 1000; i++ {
				pred := 1 + float64(i%7)
				if a, b := comm.Perturb(pred), wantComm.Perturb(pred); a != b {
					t.Fatalf("kind %d err %g: comm draw %d = %v, want %v", kind, errMag, i, a, b)
				}
				if a, b := comp.Perturb(pred), wantComp.Perturb(pred); a != b {
					t.Fatalf("kind %d err %g: comp draw %d = %v, want %v", kind, errMag, i, a, b)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("kind %d err %g: master advanced differently", kind, errMag)
			}
		}
	}
}

// newModel is the per-run construction a Stream replaces.
func newModel(kind Kind, errMag float64, src *rng.Source) Model {
	if errMag <= 0 {
		return Perfect{}
	}
	if kind == UniformError {
		return NewUniform(errMag, src)
	}
	return NewTruncNormal(errMag, src)
}

// Pair.Split binds both streams to Perfect at zero magnitude and
// otherwise to a *Tape of the asked kind and magnitude — the model the
// engine's draw counters classify by Tape.Kind — and re-splitting
// allocates nothing.
func TestPairSplitKinds(t *testing.T) {
	var p Pair
	master := rng.New(1)
	if comm, comp := p.Split(master, UniformError, 0); comm != (Perfect{}) || comp != (Perfect{}) {
		t.Errorf("zero magnitude bound %#v, %#v; want Perfect", comm, comp)
	}
	for _, kind := range []Kind{NormalError, UniformError} {
		comm, comp := p.Split(master, kind, 0.2)
		for _, m := range []Model{comm, comp} {
			if tp, ok := m.(*Tape); !ok || tp.Kind() != kind || tp.Error() != 0.2 {
				t.Errorf("kind %d bound %#v", kind, m)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		master.Reseed(3)
		comm, comp := p.Split(master, UniformError, 0.3)
		comm.Perturb(1)
		comp.Perturb(1)
	}); n != 0 {
		t.Errorf("Split: %v allocs", n)
	}
}
