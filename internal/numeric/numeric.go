// Package numeric collects the small numerical kernels the schedulers need:
// root finding (bisection and Brent's method) for the UMR round-count
// optimisation, and dense linear solving (Gaussian elimination with partial
// pivoting) for the Multi-Installment chunk system.
//
// Everything here is plain float64; the systems involved are tiny (at most
// a few hundred unknowns), so numerical sophistication beyond partial
// pivoting would be wasted.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned by the root finders when f(a) and f(b) have the
// same sign.
var ErrNoBracket = errors.New("numeric: root is not bracketed")

// ErrSingular is returned by SolveLinear when the matrix is (numerically)
// singular.
var ErrSingular = errors.New("numeric: singular matrix")

// ErrNoConverge is returned when an iteration limit is reached.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// Bisect finds a root of f in [a, b] to within tol using plain bisection.
// f(a) and f(b) must have opposite signs.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < 200; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, nil
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). It converges much faster than
// Bisect on smooth functions and is used for the Lagrange condition in UMR.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrNoConverge
}

// SolveLinear solves A x = rhs in place using Gaussian elimination with
// partial pivoting. A is n x n with n = len(rhs), stored row-major in one
// contiguous slab of n*n entries (row r is a[r*n : (r+1)*n]); it is
// destroyed, and rhs is overwritten with the solution, which is also
// returned.
func SolveLinear(a, rhs []float64) ([]float64, error) {
	n := len(rhs)
	if len(a) != n*n {
		return nil, fmt.Errorf("numeric: matrix has %d entries but rhs has %d (want %dx%d)", len(a), n, n, n)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		pivRow := a[col*n : (col+1)*n]
		if p != col {
			other := a[p*n : (p+1)*n]
			for c := range pivRow {
				pivRow[c], other[c] = other[c], pivRow[c]
			}
			rhs[p], rhs[col] = rhs[col], rhs[p]
		}
		pivot := pivRow[col]
		tail := pivRow[col+1:]
		for r := col + 1; r < n; r++ {
			row := a[r*n : (r+1)*n]
			factor := row[col] / pivot
			if factor == 0 {
				continue
			}
			row[col] = 0
			dst := row[col+1 : col+1+len(tail)]
			for c, v := range tail {
				dst[c] -= factor * v
			}
			rhs[r] -= factor * rhs[col]
		}
	}
	// Back substitution.
	for row := n - 1; row >= 0; row-- {
		ar := a[row*n : (row+1)*n]
		sum := rhs[row]
		for c := row + 1; c < n; c++ {
			sum -= ar[c] * rhs[c]
		}
		rhs[row] = sum / ar[row]
	}
	return rhs, nil
}

// MinimizeUnimodalInt finds the integer m in [lo, hi] minimising f, assuming
// f is unimodal (decreases then increases). It scans forward from lo and
// stops after the objective has risen for `patience` consecutive steps,
// which tolerates small non-convex ripples from floating-point noise.
// It returns the best m and f(m). Arguments with lo > hi panic.
func MinimizeUnimodalInt(f func(int) float64, lo, hi, patience int) (int, float64) {
	if lo > hi {
		panic("numeric: MinimizeUnimodalInt with lo > hi")
	}
	if patience < 1 {
		patience = 1
	}
	bestM, bestV := lo, f(lo)
	rising := 0
	prev := bestV
	for m := lo + 1; m <= hi; m++ {
		v := f(m)
		if v < bestV {
			bestM, bestV = m, v
		}
		if v >= prev {
			rising++
			if rising >= patience {
				break
			}
		} else {
			rising = 0
		}
		prev = v
	}
	return bestM, bestV
}

// GeomSum returns 1 + q + q^2 + ... + q^(m-1), handling q == 1 exactly.
func GeomSum(q float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	if math.Abs(q-1) < 1e-12 {
		return float64(m)
	}
	return (math.Pow(q, float64(m)) - 1) / (q - 1)
}
