package experiment

// Content-addressed on-disk result cache. One file per completed
// configuration, named by a hash of everything that determines the block's
// bytes: the sweep parameters (base seed, total, repetitions, error
// values, algorithm list, error model and visibility) plus the
// configuration's own values — and deliberately NOT the configuration's
// position in the grid. Cell seeding is equally position-independent (see
// cellSeed), so a cache written by one sweep is valid for any other sweep
// that agrees on those parameters: extend a grid with new Ns/Rs/latencies
// and the re-sweep computes only the added cells, regardless of how the
// extension shuffled configuration indices.
//
// The cache complements the JSONL checkpoint rather than replacing it: the
// checkpoint is one append-only file scoped to a single sweep (cheap to
// resume mid-run), the cache is a directory keyed by content (shared
// across grids, sweeps and the shard coordinator). The runner restores
// from the checkpoint first, then the cache, and writes completions to
// both.
//
// Invalidation is by key: changing any sweep parameter changes every key,
// so stale entries are never read — they just linger until the directory
// is deleted. Changing the simulation code itself (engine, schedulers,
// seeding) is invisible to the key; delete the cache directory after such
// changes.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// CellKey returns the content address of one configuration's mean block
// under the given sweep parameters.
func CellKey(g Grid, algorithms []string, model ErrorModelKind, unknownError bool, cfg Config) string {
	return hashJSON(struct {
		BaseSeed     uint64
		Total        float64
		Reps         int
		Errors       []float64
		Algorithms   []string
		Model        ErrorModelKind
		UnknownError bool
		Config       Config
	}{g.BaseSeed, g.Total, g.Reps, g.Errors, algorithms, model, unknownError, cfg}, 16)
}

// MultiCellKey returns the content address of one multi-job (policy,
// arrival rate) cell's aggregate block under the given sweep parameters.
// Like CellKey it hashes values, not grid positions: extending the
// arrival-rate or policy axis and re-sweeping computes only the added
// cells. The field set differs from CellKey's, so single- and multi-job
// entries can never collide in a shared directory.
func MultiCellKey(g MultiJobGrid, algorithms []string, model ErrorModelKind, unknownError bool, policy string, rate float64) string {
	return hashJSON(struct {
		BaseSeed     uint64
		Jobs         int
		Total        float64
		Error        float64
		Reps         int
		Policy       string
		Rate         float64
		Algorithms   []string
		Model        ErrorModelKind
		UnknownError bool
		Config       Config
	}{g.BaseSeed, g.Jobs, g.Total, g.Error, g.Reps, policy, rate, algorithms, model, unknownError, g.Config}, 16)
}

// hashJSON returns the hex of the first n bytes of the sha256 of v's JSON
// — the content addresses of cache entries and the study fingerprints.
func hashJSON(v any, n int) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic("experiment: hash marshal: " + err.Error()) // plain values always marshal
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:n])
}

// cacheEntry is the on-disk schema of one cell file. The key is repeated
// inside the file so a renamed or hand-copied file cannot masquerade as a
// different cell; the config label is for humans browsing the directory.
type cacheEntry struct {
	Key    string          `json:"key"`
	Config string          `json:"config"`
	Mean   json.RawMessage `json:"mean"`
}

// Cache is an open cache directory. Get and Put are safe for concurrent
// use by multiple goroutines and multiple processes sharing the directory
// (writes are atomic rename-into-place).
type Cache struct {
	dir string
}

// OpenCache opens (creating if absent) the cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory path.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached mean block for key, if present and well-formed
// with the expected [errors][algorithms] shape. Any unreadable, corrupt or
// mis-keyed file is treated as a miss, never an error — the cell is simply
// recomputed.
func (c *Cache) Get(key string, errors, algorithms int) ([][]float64, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Key != key {
		return nil, false
	}
	mean, err := DecodeCell(e.Mean)
	if err != nil || !cellShapeOK(mean, errors, algorithms) {
		return nil, false
	}
	return mean, true
}

// Put stores a mean block under key, atomically: the entry is written to a
// temporary file in the same directory and renamed into place, so
// concurrent readers (or a kill mid-write) never observe a torn file.
func (c *Cache) Put(key string, cfg Config, mean [][]float64) error {
	raw, err := EncodeCell(mean)
	if err != nil {
		return fmt.Errorf("experiment: encode cache cell: %w", err)
	}
	data, err := json.Marshal(cacheEntry{Key: key, Config: cfg.String(), Mean: raw})
	if err != nil {
		return fmt.Errorf("experiment: encode cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("experiment: cache temp file: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: write cache cell: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: commit cache cell: %w", err)
	}
	return nil
}

// Len counts the entries currently in the cache directory (diagnostics and
// tests; it costs a directory scan).
func (c *Cache) Len() int {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(names)
}
