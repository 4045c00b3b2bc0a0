package experiment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

var (
	errNoAlgorithms = errors.New("experiment: no algorithms")
	errEmptyGrid    = errors.New("experiment: empty grid")
)

// SweepState is the scaffolding one study execution shares between the
// local Runner pool and the shard coordinator. A study is a list of
// cells, each with a fixed rows × cols result block: the paper sweep's
// cells are configurations with [error][algorithm] mean blocks, the
// multi-job study's are (policy, arrival rate) points, the resilience
// study's are its fault-free baseline and its crash rates. The state
// holds every cell's block — restored from the checkpoint and the
// content-addressed cache, or completed since — the cells still to
// compute as a work queue, and the persistence layers that completed
// blocks are written back to.
//
// Complete may be called concurrently as long as no cell index is
// completed twice — the Runner's job feed and the coordinator's done-set
// both guarantee that.
type SweepState struct {
	// Results has Mean[ci] filled for every restored configuration and nil
	// for every pending one. Only the paper sweep (OpenSweepState) has it.
	Results *Results
	// Fingerprint identifies the sweep (grid, algorithms, error model).
	// Other studies compute it only when they checkpoint.
	Fingerprint string
	// Pending lists the cell indices still to compute. OpenSweepState
	// orders them most expensive first, so the longest configurations
	// cannot land last and stretch the sweep's tail. Ordering is
	// wall-clock-only: cell seeding is position-independent, so results
	// are unaffected.
	Pending []int

	blocks     [][][]float64
	rows, cols int
	cp         *Checkpoint
	cache      *Cache
	keys       []cellKey  // per cell, filled by restore when a cache is open
	staged     int        // cells the last restore looked at
	done       int        // cells restored or completed, for Progress
	mu         sync.Mutex // guards done and serializes Progress in runCells
}

// cellKey is a cell's content address and the configuration that labels
// its cache entry.
type cellKey struct {
	key string
	cfg Config
}

// OpenSweepState validates the grid, builds the result skeleton, restores
// completed configurations (checkpoint first, then cache) and returns the
// remaining work queue. checkpointPath and cachePath may each be empty to
// disable that layer.
func OpenSweepState(g Grid, algorithms []string, model ErrorModelKind, unknownError bool, checkpointPath, cachePath string) (*SweepState, error) {
	if len(algorithms) == 0 {
		return nil, errNoAlgorithms
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	fp := Fingerprint(g, algorithms, model, unknownError)
	configs := g.Configs()
	st, err := openState(len(configs), len(g.Errors), len(algorithms), func() string { return fp }, checkpointPath, cachePath)
	if err != nil {
		return nil, err
	}
	st.Fingerprint = fp
	st.Results = &Results{Grid: g, Configs: configs, Algorithms: algorithms, Mean: st.blocks}
	st.restore(0, len(configs), func(ci int) (string, Config) {
		return CellKey(g, algorithms, model, unknownError, configs[ci]), configs[ci]
	})
	orderByCost(g, configs, len(algorithms), st.Pending)
	return st, nil
}

// openState opens the persistence layers of an n-cell study with
// rows × cols blocks. fingerprint is called only when a checkpoint is
// opened, because hashing the study costs allocations a small study
// without persistence would feel.
func openState(n, rows, cols int, fingerprint func() string, checkpointPath, cachePath string) (*SweepState, error) {
	st := &SweepState{blocks: make([][][]float64, n), rows: rows, cols: cols}
	if checkpointPath != "" {
		st.Fingerprint = fingerprint()
		cp, err := OpenCheckpoint(checkpointPath, st.Fingerprint)
		if err != nil {
			return nil, err
		}
		st.cp = cp
	}
	if cachePath != "" {
		cache, err := OpenCache(cachePath)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.cache = cache
		st.keys = make([]cellKey, n)
	}
	return st, nil
}

// restore stages cells [from, to): each is restored from the checkpoint,
// then the cache, and otherwise queued on Pending, which restore
// replaces. key is called only when a cache is open. A study whose later
// cells depend on earlier results restores and runs them in stages.
func (s *SweepState) restore(from, to int, key func(i int) (string, Config)) {
	s.Pending = s.Pending[:0]
	s.staged = to - from
	for i := from; i < to; i++ {
		if s.cp != nil {
			if b, ok := s.cp.Completed(i); ok && cellShapeOK(b, s.rows, s.cols) {
				s.blocks[i] = b
				s.done++
				continue
			}
		}
		if s.cache != nil {
			k, cfg := key(i)
			s.keys[i] = cellKey{k, cfg}
			if b, ok := s.cache.Get(k, s.rows, s.cols); ok {
				s.blocks[i] = b
				s.done++
				continue
			}
		}
		s.Pending = append(s.Pending, i)
	}
}

// Complete records cell ci's computed block and persists it to the
// checkpoint and the cache (whichever are enabled), encoding it once for
// both.
func (s *SweepState) Complete(ci int, block [][]float64) error {
	s.blocks[ci] = block
	if s.cp == nil && s.cache == nil {
		return nil
	}
	raw, err := EncodeCell(block)
	if err != nil {
		return fmt.Errorf("experiment: encode cell %d: %w", ci, err)
	}
	if s.cp != nil {
		if err := s.cp.appendEncoded(ci, block, raw); err != nil {
			return err
		}
	}
	if s.cache != nil {
		if err := s.cache.putEncoded(s.keys[ci].key, s.keys[ci].cfg, raw); err != nil {
			return err
		}
	}
	return nil
}

// Fits reports whether block has the rows × cols shape of the cells.
func (s *SweepState) Fits(block [][]float64) bool { return cellShapeOK(block, s.rows, s.cols) }

// Restored returns how many of the cells the last restore staged were
// loaded from the checkpoint/cache rather than queued.
func (s *SweepState) Restored() int { return s.staged - len(s.Pending) }

// Close releases the checkpoint file. The cache needs no teardown.
func (s *SweepState) Close() error {
	if s.cp != nil {
		return s.cp.Close()
	}
	return nil
}

// expectedCost ranks a configuration by predicted wall time: repetitions x
// error values x algorithms x expected chunks per run. Chunk counts grow
// with the worker count (each scheduling round feeds every worker) and
// with the workload's round structure (roughly logarithmic in Total for
// the factoring-family schedulers), so N x (1 + log2(Total)) is a
// serviceable proxy. Only the relative order matters.
func expectedCost(g Grid, cfg Config, algorithms int) float64 {
	expectedChunks := float64(cfg.N) * (1 + math.Log2(g.Total))
	return float64(g.Reps) * float64(len(g.Errors)) * float64(algorithms) * expectedChunks
}

// orderByCost sorts the pending queue most-expensive-first (stable, so
// equal-cost configurations keep grid order). Results are unaffected —
// cell seeds do not depend on completion order — but the sweep's tail no
// longer waits on a big configuration that happened to be enumerated last.
func orderByCost(g Grid, configs []Config, algorithms int, pending []int) {
	sort.SliceStable(pending, func(i, j int) bool {
		return expectedCost(g, configs[pending[i]], algorithms) >
			expectedCost(g, configs[pending[j]], algorithms)
	})
}
