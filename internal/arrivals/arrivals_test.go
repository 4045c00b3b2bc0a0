package arrivals

import (
	"math"
	"testing"

	"rumr/internal/rng"
)

func TestPoissonDeterministicAndValid(t *testing.T) {
	a := Poisson(2).Times(100, rng.New(42))
	b := Poisson(2).Times(100, rng.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
	if err := Validate(a); err != nil {
		t.Fatal(err)
	}
	c := Poisson(2).Times(100, rng.New(7))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestPoissonMeanGap(t *testing.T) {
	// With rate λ the mean inter-arrival gap is 1/λ; over 20k draws the
	// sample mean lands within a few percent.
	const rate, n = 4.0, 20000
	ts := Poisson(rate).Times(n, rng.New(1))
	mean := ts[n-1] / n
	if math.Abs(mean-1/rate) > 0.02/rate {
		t.Fatalf("mean gap %g, want ~%g", mean, 1/rate)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { Poisson(0) },
		func() { Poisson(math.NaN()) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]float64{0, 0, 1, 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := Validate([]float64{1, 0.5}); err == nil {
		t.Fatal("decreasing times accepted")
	}
	if err := Validate([]float64{-1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := Validate([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestNames(t *testing.T) {
	if Poisson(1).Name() != "poisson" {
		t.Fatal("process names changed")
	}
}
