package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/rng"
)

func TestBisectSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, err := Bisect(f, 0, 1, 1e-12)
	if err != nil || root != 0 {
		t.Fatalf("root = %v, err = %v; want 0, nil", root, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	_, err := Bisect(f, -1, 1, 1e-12)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	funcs := []func(float64) float64{
		func(x float64) float64 { return x*x*x - x - 2 },
		func(x float64) float64 { return math.Cos(x) - x },
		func(x float64) float64 { return math.Exp(x) - 3 },
	}
	brackets := [][2]float64{{1, 2}, {0, 1}, {0, 2}}
	for i, f := range funcs {
		a, b := brackets[i][0], brackets[i][1]
		r1, err1 := Bisect(f, a, b, 1e-12)
		r2, err2 := Brent(f, a, b, 1e-12)
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: errs %v %v", i, err1, err2)
		}
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("case %d: bisect %v vs brent %v", i, r1, r2)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 }, 0, 1, 1e-9)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a := []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}
	rhs := []float64{8, -11, -3}
	x, err := SolveLinear(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	n := 5
	a := make([]float64, n*n)
	rhs := make([]float64, n)
	for i := range rhs {
		a[i*n+i] = 1
		rhs[i] = float64(i + 1)
	}
	x, err := SolveLinear(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != float64(i+1) {
			t.Fatalf("identity solve wrong: %v", x)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := []float64{
		1, 2,
		2, 4,
	}
	_, err := SolveLinear(a, []float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionMismatch(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	if _, err := SolveLinear(a, []float64{1}); err == nil {
		t.Fatal("want error for rhs length mismatch")
	}
	bad := []float64{1, 0, 0, 0, 1, 0}
	if _, err := SolveLinear(bad, []float64{1, 2}); err == nil {
		t.Fatal("want error for non-square matrix")
	}
}

func TestSolveLinearEmpty(t *testing.T) {
	x, err := SolveLinear(nil, nil)
	if err != nil || len(x) != 0 {
		t.Fatalf("empty solve: %v, %v", x, err)
	}
}

// Property: for random well-conditioned systems, A * solve(A, b) == b.
func TestSolveLinearRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(12)
		orig := make([]float64, n*n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				orig[i*n+j] = src.Uniform(-1, 1)
			}
			orig[i*n+i] += float64(n) // diagonal dominance => well conditioned
			b[i] = src.Uniform(-10, 10)
		}
		a := append([]float64(nil), orig...)
		rhs := make([]float64, n)
		copy(rhs, b)
		x, err := SolveLinear(a, rhs)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += orig[i*n+j] * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeUnimodalInt(t *testing.T) {
	f := func(m int) float64 { return float64((m - 17) * (m - 17)) }
	m, v := MinimizeUnimodalInt(f, 1, 1000, 3)
	if m != 17 || v != 0 {
		t.Fatalf("got (%d, %v), want (17, 0)", m, v)
	}
}

func TestMinimizeUnimodalIntEdge(t *testing.T) {
	// Minimum at the lower bound.
	f := func(m int) float64 { return float64(m) }
	m, _ := MinimizeUnimodalInt(f, 5, 100, 2)
	if m != 5 {
		t.Fatalf("got %d, want 5", m)
	}
	// Minimum at the upper bound.
	g := func(m int) float64 { return -float64(m) }
	m, _ = MinimizeUnimodalInt(g, 1, 9, 2)
	if m != 9 {
		t.Fatalf("got %d, want 9", m)
	}
	// Single point interval.
	m, v := MinimizeUnimodalInt(f, 3, 3, 2)
	if m != 3 || v != 3 {
		t.Fatalf("got (%d,%v), want (3,3)", m, v)
	}
}

func TestMinimizeUnimodalIntRipple(t *testing.T) {
	// A tiny ripple before the true minimum must not stop the scan when
	// patience allows riding through it.
	f := func(m int) float64 {
		base := float64((m - 30) * (m - 30))
		if m == 10 {
			return base - 0.5 // slight dip causing one rising step after
		}
		return base
	}
	m, _ := MinimizeUnimodalInt(f, 1, 100, 3)
	if m != 30 {
		t.Fatalf("got %d, want 30", m)
	}
}

func TestGeomSum(t *testing.T) {
	cases := []struct {
		q    float64
		m    int
		want float64
	}{
		{2, 3, 7},
		{1, 5, 5},
		{0.5, 2, 1.5},
		{3, 0, 0},
		{3, -1, 0},
	}
	for _, c := range cases {
		if got := GeomSum(c.q, c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("GeomSum(%v,%d) = %v, want %v", c.q, c.m, got, c.want)
		}
	}
}
