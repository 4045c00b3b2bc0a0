package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"rumr/internal/rng"
)

// refFloat is the reflection path EncodeCell replaced, frozen as the
// reference: encoding/json over [][]refFloat, NaN as null.
type refFloat float64

func (f refFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func refEncodeCell(mean [][]float64) ([]byte, error) {
	var enc [][]refFloat
	if mean != nil {
		enc = make([][]refFloat, len(mean))
	}
	for i, row := range mean {
		if row != nil {
			enc[i] = make([]refFloat, len(row))
		}
		for j, v := range row {
			enc[i][j] = refFloat(v)
		}
	}
	return json.Marshal(enc)
}

// EncodeCell writes exactly the bytes of the encoding/json reference for
// every float64 class: random bit patterns (subnormals, huge and tiny
// exponents among them), signed zeros, both sides of the 1e-6 and 1e21
// format switches, NaN, and nil, empty and nil-row blocks.
func TestEncodeCellMatchesEncodingJSON(t *testing.T) {
	check := func(name string, mean [][]float64) {
		t.Helper()
		got, err := EncodeCell(mean)
		if err != nil {
			t.Fatalf("%s: EncodeCell: %v", name, err)
		}
		want, err := refEncodeCell(mean)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeCell = %s, encoding/json = %s", name, got, want)
		}
	}

	check("nil block", nil)
	check("empty block", [][]float64{})
	check("nil row", [][]float64{nil, {1}, nil})
	check("empty rows", [][]float64{{}, {}})

	var edges []float64
	for _, b := range []float64{1e-6, 1e21, 1e-7, 1e20, 1e-5, 1e22} {
		edges = append(edges, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	edges = append(edges,
		0, math.Copysign(0, -1), math.NaN(),
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // largest subnormal
		2.2250738585072014e-308, math.MaxFloat64, 1, 0.1, 1.5, 123456789,
		1e-9, 1.5e-10, 1e100, 1e-100, 5e-324)
	for _, v := range edges {
		check("edge", [][]float64{{v, -v}})
	}
	check("edges in one block", [][]float64{edges, edges[:3]})

	src := rng.New(18)
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+src.Intn(5), src.Intn(8)
		mean := make([][]float64, rows)
		for i := range mean {
			mean[i] = make([]float64, cols)
			for j := range mean[i] {
				v := math.Float64frombits(src.Uint64())
				if math.IsInf(v, 0) {
					v = math.NaN()
				}
				if src.Intn(2) == 0 {
					// Sweep means are positive makespans: mix in ordinary
					// magnitudes next to the raw bit patterns.
					v = src.Uniform(0, 1e4)
				}
				mean[i][j] = v
			}
		}
		check("random", mean)
	}

	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeCell([][]float64{{1, inf}}); err == nil {
			t.Fatalf("EncodeCell accepted %v", inf)
		}
	}
}
