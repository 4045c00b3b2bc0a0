package platform

import (
	"math"
	"testing"

	"rumr/internal/rng"
)

func TestWorkerValidate(t *testing.T) {
	ok := Worker{S: 1, B: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid worker rejected: %v", err)
	}
	bad := []Worker{
		{S: 0, B: 1},
		{S: 1, B: 0},
		{S: 1, B: 1, CLat: -1},
		{S: 1, B: 1, NLat: -0.5},
		{S: 1, B: 1, TLat: -0.1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad worker %d accepted", i)
		}
	}
}

func TestPlatformValidate(t *testing.T) {
	var empty Platform
	if err := empty.Validate(); err == nil {
		t.Fatal("empty platform accepted")
	}
	p := Homogeneous(3, 1, 6, 0.1, 0.2)
	if err := p.Validate(); err != nil {
		t.Fatalf("homogeneous platform rejected: %v", err)
	}
	p.Workers[1].S = -1
	if err := p.Validate(); err == nil {
		t.Fatal("platform with bad worker accepted")
	}
}

func TestHomogeneousBuilder(t *testing.T) {
	p := Homogeneous(5, 1, 10, 0.3, 0.4)
	if p.N() != 5 {
		t.Fatalf("N = %d", p.N())
	}
	if !p.Homogeneous() {
		t.Fatal("homogeneous platform not detected")
	}
	for _, w := range p.Workers {
		if w.S != 1 || w.B != 10 || w.CLat != 0.3 || w.NLat != 0.4 || w.TLat != 0 {
			t.Fatalf("worker = %+v", w)
		}
	}
}

func TestHomogeneousDetection(t *testing.T) {
	p := Homogeneous(3, 1, 10, 0, 0)
	p.Workers[2].B = 11
	if p.Homogeneous() {
		t.Fatal("heterogeneous platform reported homogeneous")
	}
	single := Homogeneous(1, 1, 1, 0, 0)
	if !single.Homogeneous() {
		t.Fatal("single worker must be homogeneous")
	}
}

func TestUtilizationRatio(t *testing.T) {
	// Paper's setup: S=1, B = r*N -> ratio = N/(r*N) = 1/r.
	p := Homogeneous(20, 1, 1.5*20, 0, 0)
	if math.Abs(p.UtilizationRatio()-1/1.5) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", p.UtilizationRatio(), 1/1.5)
	}
	slow := Homogeneous(10, 1, 5, 0, 0)
	if got := slow.UtilizationRatio(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ratio = %v, want 2", got)
	}
}

func TestTotalSpeed(t *testing.T) {
	p := &Platform{Workers: []Worker{{S: 1, B: 1}, {S: 2.5, B: 1}}}
	if p.TotalSpeed() != 3.5 {
		t.Fatalf("total speed = %v", p.TotalSpeed())
	}
}

func TestHeterogeneousGenerator(t *testing.T) {
	spec := HeterogeneousSpec{
		N: 16, SMin: 0.5, SMax: 2, BMin: 10, BMax: 50,
		CLatMin: 0, CLatMax: 1, NLatMin: 0, NLatMax: 1, TLatMin: 0, TLatMax: 0.5,
	}
	p := Heterogeneous(spec, rng.New(7))
	if p.N() != 16 {
		t.Fatalf("N = %d", p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated platform invalid: %v", err)
	}
	for i, w := range p.Workers {
		if w.S < 0.5 || w.S >= 2 || w.B < 10 || w.B >= 50 {
			t.Fatalf("worker %d out of spec: %+v", i, w)
		}
	}
	// Deterministic from the seed.
	q := Heterogeneous(spec, rng.New(7))
	for i := range p.Workers {
		if p.Workers[i] != q.Workers[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestFillHomogeneousMatchesHomogeneous(t *testing.T) {
	var p Platform
	shapes := []struct {
		n                int
		s, b, cLat, nLat float64
	}{
		{4, 1, 10, 0.3, 0.9},
		{20, 1, 30, 0, 0.3},
		{3, 2, 5, 0.1, 0.2},
		{20, 1, 36, 0.3, 0.9},
	}
	for _, sh := range shapes {
		p.FillHomogeneous(sh.n, sh.s, sh.b, sh.cLat, sh.nLat)
		want := Homogeneous(sh.n, sh.s, sh.b, sh.cLat, sh.nLat)
		if len(p.Workers) != len(want.Workers) {
			t.Fatalf("n=%d: got %d workers, want %d", sh.n, len(p.Workers), len(want.Workers))
		}
		for i := range p.Workers {
			if p.Workers[i] != want.Workers[i] {
				t.Fatalf("n=%d: worker %d = %+v, want %+v", sh.n, i, p.Workers[i], want.Workers[i])
			}
		}
	}
}

func TestFillHomogeneousReusesStorage(t *testing.T) {
	var p Platform
	p.FillHomogeneous(32, 1, 10, 0.3, 0.9)
	ptr := &p.Workers[0]
	p.FillHomogeneous(8, 2, 20, 0.1, 0.2)
	if &p.Workers[0] != ptr {
		t.Fatal("shrinking refill reallocated the worker slice")
	}
	if len(p.Workers) != 8 {
		t.Fatalf("len = %d, want 8", len(p.Workers))
	}
}
