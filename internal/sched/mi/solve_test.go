package mi

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rumr/internal/numeric"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// solveLinearRows is a frozen copy of numeric.SolveLinear as it was
// before the system moved to one contiguous slab: the same elimination
// over n separate row slices, with pivot swaps exchanging row headers.
// It is the reference the slab solver must reproduce bit for bit.
func solveLinearRows(a [][]float64, rhs []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return rhs, nil
	}
	if len(rhs) != n {
		return nil, fmt.Errorf("numeric: matrix is %dx%d but rhs has %d entries", n, len(a[0]), len(rhs))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("numeric: non-square matrix (row length %d, n=%d)", len(row), n)
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-13 {
			return nil, numeric.ErrSingular
		}
		if p != col {
			a[p], a[col] = a[col], a[p]
			rhs[p], rhs[col] = rhs[col], rhs[p]
		}
		pivot := a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / pivot
			if factor == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			rhs[r] -= factor * rhs[col]
		}
	}
	// Back substitution.
	for row := n - 1; row >= 0; row-- {
		sum := rhs[row]
		for c := row + 1; c < n; c++ {
			sum -= a[row][c] * rhs[c]
		}
		rhs[row] = sum / a[row][row]
	}
	return rhs, nil
}

// checkBitIdentical solves the n×n slab system (a, rhs) with both
// solvers, each on its own copy, and fails unless they agree on every
// bit of the solution or both report a singular matrix.
func checkBitIdentical(t *testing.T, name string, n int, a, rhs []float64) {
	t.Helper()
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = append([]float64(nil), a[r*n:(r+1)*n]...)
	}
	want, wantErr := solveLinearRows(rows, append([]float64(nil), rhs...))
	got, gotErr := numeric.SolveLinear(append([]float64(nil), a...), append([]float64(nil), rhs...))
	if wantErr != nil || gotErr != nil {
		if !errors.Is(wantErr, numeric.ErrSingular) || !errors.Is(gotErr, numeric.ErrSingular) {
			t.Fatalf("%s: reference error %v, slab solver error %v", name, wantErr, gotErr)
		}
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v (%#x), reference %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSolveLinearBitIdentical pins the slab solver to the row-slice
// elimination it replaced: random well-conditioned systems (rows
// shuffled, so partial pivoting swaps rows) and the MI systems of the
// sweep's platform sizes must solve to bit-identical vectors, which is
// what keeps every MI plan, and so every sweep result, unchanged.
func TestSolveLinearBitIdentical(t *testing.T) {
	src := rng.New(15)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(40)
		a := make([]float64, n*n)
		rhs := make([]float64, n)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				a[r*n+c] = src.Uniform(-1, 1)
			}
			// Diagonal dominance in a shuffled column: well conditioned,
			// and the pivot of column perm[r] sits in row r.
			a[r*n+perm[r]] += float64(n)
			rhs[r] = src.Uniform(-10, 10)
		}
		checkBitIdentical(t, fmt.Sprintf("random trial %d (n=%d)", trial, n), n, a, rhs)
	}
	for _, n := range []int{10, 50} {
		for _, r := range []float64{1.2, 2.0} {
			p := platform.Homogeneous(n, 1, r*float64(n), 0, 0)
			for x := 1; x <= 4; x++ {
				a, rhs, err := system(p, 1000, x)
				if err != nil {
					t.Fatal(err)
				}
				checkBitIdentical(t, fmt.Sprintf("MI-%d N=%d r=%g", x, n, r), n*x, a, rhs)
			}
		}
	}
}
