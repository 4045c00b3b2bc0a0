package experiment

// Content-addressed on-disk result cache. Every completed configuration
// is one line in an append-only JSONL segment, keyed by a hash of
// everything that determines the block's bytes: the sweep parameters
// (base seed, total, repetitions, error values, algorithm list, error
// model and visibility) plus the configuration's own values — and
// deliberately NOT the configuration's position in the grid. Cell seeding
// is equally position-independent (see reseedCell), so a cache written by
// one sweep is valid for any other sweep that agrees on those parameters:
// extend a grid with new Ns/Rs/latencies and the re-sweep computes only
// the added cells, regardless of how the extension shuffled configuration
// indices.
//
// The directory holds segments named seg-*.jsonl. OpenCache reads them
// all into an in-memory index; each handle appends its own Puts to a
// segment of its own, created on its first Put. So processes sharing the
// directory never write the same file, and persisting a cell costs one
// append rather than one file create. A line that does not parse (a torn
// tail from a kill mid-append, say) is skipped: that cell is a miss and
// is recomputed. Unlike the checkpoint's lines, segment lines are not
// fsynced: a line lost in a crash costs only a recomputation.
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
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// cacheEntry is one segment line. The key is the index key; the config
// label is for humans browsing the directory.
type cacheEntry struct {
	Key    string          `json:"key"`
	Config string          `json:"config"`
	Mean   json.RawMessage `json:"mean"`
}

// Cache is an open cache directory: the entries of every segment present
// at open, plus this handle's own Puts. Get and Put are safe for
// concurrent use by multiple goroutines; multiple processes may share the
// directory, each seeing the others' entries from its next OpenCache.
type Cache struct {
	dir   string
	mu    sync.Mutex
	index map[string]json.RawMessage // key → EncodeCell bytes
	seg   string                     // this handle's segment, "" before its first Put
}

// OpenCache opens (creating if absent) the cache directory and indexes
// every segment in it. Unreadable segments and malformed lines are
// skipped, never an error.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: open cache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("experiment: open cache: %w", err)
	}
	c := &Cache{dir: dir, index: make(map[string]json.RawMessage)}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".jsonl") {
			c.load(filepath.Join(dir, name))
		}
	}
	return c, nil
}

// load indexes the well-formed lines of one segment. Lines for one key
// carry the same bytes unless one is corrupt; when they differ, which
// line the index keeps is unspecified.
func (c *Cache) load(seg string) {
	f, err := os.Open(seg)
	if err != nil {
		return
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		var e cacheEntry
		if len(line) > 0 && json.Unmarshal(line, &e) == nil && e.Key != "" && e.Mean != nil {
			c.index[e.Key] = e.Mean
		}
		if err != nil {
			return
		}
	}
}

// Dir returns the cache directory path.
func (c *Cache) Dir() string { return c.dir }

// Get returns the cached mean block for key, if present and well-formed
// with the expected [errors][algorithms] shape. A corrupt or mis-shaped
// entry is a miss, never an error — the cell is simply recomputed.
func (c *Cache) Get(key string, errors, algorithms int) ([][]float64, bool) {
	c.mu.Lock()
	raw, ok := c.index[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	mean, err := DecodeCell(raw)
	if err != nil || !cellShapeOK(mean, errors, algorithms) {
		return nil, false
	}
	return mean, true
}

// Put stores a mean block under key.
func (c *Cache) Put(key string, cfg Config, mean [][]float64) error {
	raw, err := EncodeCell(mean)
	if err != nil {
		return fmt.Errorf("experiment: encode cache cell: %w", err)
	}
	return c.putEncoded(key, cfg, raw)
}

// putEncoded is Put for a block already encoded as raw by EncodeCell: it
// appends one cacheEntry line to this handle's segment and indexes it.
// raw must not be modified afterwards.
func (c *Cache) putEncoded(key string, cfg Config, raw json.RawMessage) error {
	line := make([]byte, 0, len(raw)+len(key)+64)
	line = append(line, `{"key":`...)
	line = appendJSONString(line, key)
	line = append(line, `,"config":`...)
	line = appendJSONString(line, cfg.String())
	line = append(line, `,"mean":`...)
	line = append(line, raw...)
	line = append(line, "}\n"...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(line); err != nil {
		return fmt.Errorf("experiment: write cache cell: %w", err)
	}
	c.index[key] = raw
	return nil
}

// appendLocked appends line to this handle's segment, creating the
// segment on first use. The file is opened per append, so the handle
// holds no descriptor and needs no Close. After a failed write the next
// Put starts a new segment rather than append after a torn line.
func (c *Cache) appendLocked(line []byte) error {
	var f *os.File
	var err error
	if c.seg == "" {
		f, err = os.CreateTemp(c.dir, "seg-*.jsonl") // O_EXCL: a name no other handle holds
	} else {
		f, err = os.OpenFile(c.seg, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return err
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	if err := errors.Join(werr, cerr); err != nil {
		c.seg = ""
		return err
	}
	c.seg = f.Name()
	return nil
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	q, err := json.Marshal(s)
	if err != nil {
		panic("experiment: string marshal: " + err.Error()) // strings always marshal
	}
	return append(b, q...)
}

// Len returns the number of entries the handle indexes: those on disk at
// open plus its own Puts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}
