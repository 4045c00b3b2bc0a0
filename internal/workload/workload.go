// Package workload describes divisible-workload applications: a total
// amount of work W_total in abstract "units" (the paper's minimal unit of
// computation — one sequence of a dictionary, one block of pixels) plus the
// application-level characteristics the examples use to derive platform
// parameters and error magnitudes.
//
// The three profiles mirror the applications the paper's introduction
// motivates: sequence matching (BLAST-like), image feature extraction, and
// ray tracing (whose per-pixel cost is data dependent, the paper's example
// of an application-inherent prediction error).
package workload

import "fmt"

// Workload is a continuously divisible workload. The amount of input data
// per chunk is proportional to the chunk's computation (the paper's
// proportionality assumption); DataPerUnit is that constant in bytes per
// unit and only matters for reporting, since the platform's B is already
// expressed in units/second.
type Workload struct {
	// Total is W_total in units.
	Total float64
	// UnitOps is the computation per unit, in abstract operations; used by
	// the examples to derive worker speeds from hardware op rates.
	UnitOps float64
	// DataPerUnit is input bytes per unit of workload.
	DataPerUnit float64
	// Name labels the workload in reports.
	Name string
}

// Validate checks the workload is non-degenerate.
func (w Workload) Validate() error {
	if w.Total <= 0 {
		return fmt.Errorf("workload: total %g must be positive", w.Total)
	}
	return nil
}

// SequenceMatching models comparing one query against a dictionary of
// sequences: one unit = one dictionary sequence. Runtime per sequence is
// near constant, so the inherent error magnitude is small.
func SequenceMatching(sequences int) Workload {
	return Workload{
		Total:       float64(sequences),
		UnitOps:     2.5e8, // a few hundred Mop per sequence comparison
		DataPerUnit: 1200,  // ~1 KB of sequence text per unit
		Name:        "sequence-matching",
	}
}

// ImageFeature models feature extraction over a large image segmented into
// blocks: one unit = one block of pixels.
func ImageFeature(blocks int) Workload {
	return Workload{
		Total:       float64(blocks),
		UnitOps:     8e7,
		DataPerUnit: 64 * 64 * 3, // one 64x64 RGB tile per unit
		Name:        "image-feature-extraction",
	}
}

// RayTracing models rendering an image where the cost of a pixel block
// depends strongly on scene complexity — the paper's canonical example of
// data-dependent computation. Callers should pair it with a large error
// magnitude.
func RayTracing(tiles int) Workload {
	return Workload{
		Total:       float64(tiles),
		UnitOps:     5e8,
		DataPerUnit: 256, // scene description reference per tile
		Name:        "ray-tracing",
	}
}
