package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"rumr/internal/metrics"
)

var (
	errNoAlgorithms = errors.New("experiment: no algorithms")
	errEmptyGrid    = errors.New("experiment: empty grid")
)

// SweepState is one study execution, shared by the Runner's driver and
// the Fleet its cells may compute on. A study is a list of cells, each
// with a fixed rows × cols result block: the paper sweep's cells are
// configurations with [error][algorithm] mean blocks, the multi-job
// study's are (policy, arrival rate) points, the resilience study's are
// its fault-free baseline and its crash rates, the heterogeneity study's
// are (spread, error) points. The state holds every cell's block —
// restored from the checkpoint and the content-addressed cache, or
// completed since — the current wave's cells still to compute, and the
// persistence layers that completed blocks are written back to.
//
// Complete may be called concurrently as long as no cell index is
// completed twice — the Runner's job feed and the coordinator's pending
// set both guarantee that.
type SweepState struct {
	// Results has Mean[ci] filled for every restored configuration and nil
	// for every pending one. Only OpenSweepState sets it.
	Results *Results
	// Fingerprint identifies the study (grid, algorithms, error model,
	// visibility). It is computed when a checkpoint or a Fleet needs it,
	// and always by OpenSweepState.
	Fingerprint string
	// Pending lists the current wave's cells still to compute. The paper
	// sweep orders them most expensive first, so the longest
	// configurations cannot land last and stretch the sweep's tail.
	// Ordering is wall-clock-only: cell seeding is position-independent,
	// so results are unaffected.
	Pending []int

	study    *study
	blocks   [][][]float64
	cp       *Checkpoint
	cache    *Cache
	keys     []cellKey // per cell, filled by restore when a cache is open
	staged   int       // cells the last restore looked at
	met      *metrics.Collector
	progress func(done, total int)
	mu       sync.Mutex // guards done and serializes progress
	done     int        // cells restored or completed
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
	// The state is opened, never run: no Runner computes its cells.
	s, err := (*Runner).sweepStudy(nil, Job{Algorithms: algorithms, Model: model, UnknownError: unknownError}, g)
	if err != nil {
		return nil, err
	}
	st, err := openState(s, checkpointPath, cachePath, true)
	if err != nil {
		return nil, err
	}
	st.Results = s.results(st.blocks).(*Results)
	st.restore(0, s.cells)
	return st, nil
}

// openState opens the persistence layers of study s. The fingerprint is
// computed only when a checkpoint is opened or fingerprint is set,
// because hashing the study costs allocations a small study without
// persistence would feel.
func openState(s *study, checkpointPath, cachePath string, fingerprint bool) (*SweepState, error) {
	if len(s.job.Algorithms) == 0 {
		return nil, errNoAlgorithms
	}
	st := &SweepState{study: s, blocks: make([][][]float64, s.cells)}
	if fingerprint || checkpointPath != "" {
		st.Fingerprint = Fingerprint(s.grid, s.job.Algorithms, s.job.Model, s.job.UnknownError)
	}
	if checkpointPath != "" {
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
		st.keys = make([]cellKey, s.cells)
	}
	return st, nil
}

// restore stages the wave of cells [from, to): each is restored from the
// checkpoint, then the cache, and otherwise queued on Pending, which
// restore replaces and the study may reorder. Cell keys are computed
// only when a cache is open.
func (s *SweepState) restore(from, to int) {
	s.Pending = s.Pending[:0]
	s.staged = to - from
	for i := from; i < to; i++ {
		if s.cp != nil {
			if b, ok := s.cp.Completed(i); ok && s.Accepts(b) {
				s.blocks[i] = b
				s.done++
				continue
			}
		}
		if s.cache != nil {
			k, cfg := s.study.key(i)
			s.keys[i] = cellKey{k, cfg}
			if b, ok := s.cache.Get(k, s.study.rows, s.study.cols); ok && s.Accepts(b) {
				s.blocks[i] = b
				s.done++
				continue
			}
		}
		s.Pending = append(s.Pending, i)
	}
	if s.study.order != nil {
		s.study.order(s.Pending)
	}
}

// Accepts reports whether block may stand for one of the study's cells:
// it has the cells' shape, and every value is NaN (an algorithm that
// failed) or finite and positive — or zero, in the rows that may hold
// zeros (fairness indices, completed fractions, re-send counts). It is
// the one rule for blocks from outside the process: a checkpoint or cache
// block that fails it is recomputed, and the shard coordinator refuses a
// posted block that fails it.
func (s *SweepState) Accepts(block [][]float64) bool {
	if !cellShapeOK(block, s.study.rows, s.study.cols) {
		return false
	}
	for row, vals := range block {
		zeroOK := slices.Contains(s.study.zeroRows, row)
		for _, v := range vals {
			if !math.IsNaN(v) && (v < 0 || v == 0 && !zeroOK || math.IsInf(v, 1)) {
				return false
			}
		}
	}
	return true
}

// Job returns the job of the current wave: the study, its grid and the
// inputs its pending cells need.
func (s *SweepState) Job() Job { return s.study.job }

// Cells returns the study's cell count; cell indices run below it.
func (s *SweepState) Cells() int { return len(s.blocks) }

// Done returns how many of the study's cells are restored or complete.
func (s *SweepState) Done() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// computeLocal computes cell ci in this process and completes it. Its
// runs reached the runner's metrics as they ran.
func (s *SweepState) computeLocal(ctx context.Context, ci int) error {
	start := time.Now()
	block, _, err := s.study.compute(ctx, ci)
	if err != nil {
		return err
	}
	return s.Complete(ci, block, time.Since(start), CellCounters{})
}

// Complete records cell ci's block, which must pass Accepts, and persists
// it to the checkpoint and the cache (whichever are enabled), encoding it
// once for both. It then counts the cell: its wall time and ctrs — the
// telemetry of a block computed elsewhere, zero for a local one — into
// the metrics, one more done cell into the serialized progress report.
func (s *SweepState) Complete(ci int, block [][]float64, wall time.Duration, ctrs CellCounters) error {
	s.blocks[ci] = block
	if s.cp != nil || s.cache != nil {
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
	}
	if s.met != nil {
		s.met.AddEngineCounters(ctrs.Engine)
		s.met.AddPlans(ctrs.PlansBuilt, ctrs.PlansShared)
		s.met.ConfigDone(wall)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if s.progress != nil {
		s.progress(s.done, len(s.blocks))
	}
	return nil
}

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
