package experiment

import (
	"context"
	"testing"
)

// BenchmarkCellReference measures BenchmarkSweepCell's cell through the
// frozen pre-batch reference implementation (batch_test.go), so the
// batching win can be read off one interleaved
// `go test -bench 'SweepCell|CellReference'` run instead of compared
// across machines.
func BenchmarkCellReference(b *testing.B) {
	g := centralGrid(0.3)
	cfg := g.Configs()[0]
	r := &Runner{Algorithms: StandardAlgorithms(), Workers: 1}
	benchSteadyState(b, func() error {
		_, err := computeCellReference(r, context.Background(), g, cfg)
		return err
	})
}
