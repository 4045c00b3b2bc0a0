package experiment

import "testing"

// TestPersistedKeysArePinned pins the literal content addresses and the
// checkpoint fingerprint of a fixed study under both error models. Every
// result cache and checkpoint on disk is indexed by these strings, so a
// change to how the model kind (or any other keyed field) marshals would
// silently orphan them; this test makes such a change loud.
func TestPersistedKeysArePinned(t *testing.T) {
	algos := []string{"RUMR", "UMR", "Factoring"}
	g := SmokeGrid()
	cfg := Config{N: 10, R: 1.5, CLat: 0.1, NLat: 0.5}
	mg := MultiJobGrid{
		Config:       Config{N: 8, R: 1.8, CLat: 0.3, NLat: 0.9},
		Jobs:         3,
		ArrivalRates: []float64{0, 0.02},
		Policies:     []string{"fcfs"},
		Error:        0.2,
		Reps:         4,
		Total:        200,
		BaseSeed:     2003,
	}
	for _, c := range []struct {
		model           ErrorModelKind
		unknown         bool
		cell, multi, fp string
	}{
		{NormalError, false, "4482ce8fd146feca391c7770ceb94a39", "2daa387c95b13eb91ff56b8064bbdbb7", "6ce66fb27453a529"},
		{NormalError, true, "cf474a702d072d67be84a0a39363ad4b", "74f90864d55019497af4db19e770b096", "fa978f47c7bd1c9d"},
		{UniformError, false, "b28f59fc98a175942ce9974448f72640", "0d3d1021717487b85e06429288c0bf1b", "04d3fc918452a8f4"},
		{UniformError, true, "082aedf0d5d2aaa2e4212eeba4deaf63", "4d88ee9fddb91e220c58efd39a30d8ec", "ce9a9bbf14c71d2f"},
	} {
		if got := CellKey(g, algos, c.model, c.unknown, cfg); got != c.cell {
			t.Errorf("CellKey(model=%d, unknown=%v) = %q, want %q", c.model, c.unknown, got, c.cell)
		}
		if got := MultiCellKey(mg, algos, c.model, c.unknown, "fcfs", 0.02); got != c.multi {
			t.Errorf("MultiCellKey(model=%d, unknown=%v) = %q, want %q", c.model, c.unknown, got, c.multi)
		}
		if got := Fingerprint(g, algos, c.model, c.unknown); got != c.fp {
			t.Errorf("Fingerprint(model=%d, unknown=%v) = %q, want %q", c.model, c.unknown, got, c.fp)
		}
	}
}
