package experiment

// Checkpoint/resume for long sweeps. After every completed configuration
// the runner appends that configuration's [error][algorithm] mean block to
// a JSONL file; a restarted sweep loads the file, skips the completed
// configurations and recomputes only the rest. Because every cell's error
// streams are seeded from (BaseSeed, config values, error value, rep) —
// see reseedCell — independent of worker scheduling, a resumed sweep is
// bit-identical to an uninterrupted one.
//
// Every line carries a fingerprint of (grid, algorithm names, error
// model, error visibility); opening a checkpoint written by a different
// sweep is an error rather than a silent wrong resume. A partial trailing
// line (the process was killed mid-append) is detected and truncated away.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Fingerprint identifies a study for checkpointing: its grid (of any
// study's type: they marshal under one field name, so studies of
// different kinds cannot share a checkpoint), the algorithm names (order
// matters — it fixes the block layout), the error model and whether the
// error magnitude is hidden from the schedulers. Two studies share a
// checkpoint file iff they agree on all of these.
func Fingerprint(grid any, algorithms []string, model ErrorModelKind, unknownError bool) string {
	return hashJSON(struct {
		Grid         any
		Algorithms   []string
		Model        ErrorModelKind
		UnknownError bool
	}{grid, algorithms, model, unknownError}, 8)
}

// ckptFloat decodes JSON null as NaN (an algorithm that failed on a
// configuration), which encoding/json cannot represent natively;
// EncodeCell writes the null.
type ckptFloat float64

func (f *ckptFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = ckptFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = ckptFloat(v)
	return nil
}

// checkpointLine is one completed configuration on disk. Mean uses the
// NaN-as-null encoding of EncodeCell/DecodeCell.
type checkpointLine struct {
	Fingerprint string          `json:"fingerprint"`
	Config      int             `json:"config"`
	Mean        json.RawMessage `json:"mean"`
}

// Checkpoint is an open sweep checkpoint file. All methods are safe for
// concurrent use by the runner's worker pool.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	fp   string
	done map[int][][]float64
}

// OpenCheckpoint opens (creating if absent) the checkpoint at path and
// loads the configurations already completed under the given fingerprint.
// A line recorded under a different fingerprint aborts the open — the file
// belongs to a different sweep. A truncated final line (from a kill mid
// append) is discarded and the file trimmed back to the last whole line.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: open checkpoint: %w", err)
	}
	cp := &Checkpoint{f: f, fp: fingerprint, done: make(map[int][][]float64)}
	if err := cp.load(); err != nil {
		f.Close()
		return nil, err
	}
	return cp, nil
}

// load scans the file line by line, keeping the offset of the end of the
// last whole valid line so a partial tail can be truncated away.
func (c *Checkpoint) load() error {
	data, err := io.ReadAll(c.f)
	if err != nil {
		return fmt.Errorf("experiment: read checkpoint: %w", err)
	}
	valid := 0 // byte offset past the last whole valid line
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // unterminated tail: partial append, drop it
		}
		line := data[valid : valid+nl]
		var cl checkpointLine
		if err := json.Unmarshal(line, &cl); err != nil {
			break // corrupt tail: drop this line and everything after
		}
		if cl.Fingerprint != c.fp {
			return fmt.Errorf("experiment: checkpoint %s was written by a different sweep (fingerprint %s, want %s)",
				c.f.Name(), cl.Fingerprint, c.fp)
		}
		mean, err := DecodeCell(cl.Mean)
		if err != nil {
			break // corrupt tail: drop this line and everything after
		}
		c.done[cl.Config] = mean
		valid += nl + 1
	}
	if valid < len(data) {
		if err := c.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("experiment: trim partial checkpoint line: %w", err)
		}
	}
	if _, err := c.f.Seek(int64(valid), io.SeekStart); err != nil {
		return err
	}
	return nil
}

// Completed returns the mean block recorded for configuration ci, if any.
// The returned slices must not be mutated.
func (c *Checkpoint) Completed(ci int) ([][]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mean, ok := c.done[ci]
	return mean, ok
}

// Len returns the number of completed configurations on record.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Append records configuration ci's completed mean block and flushes it to
// stable storage before returning, so a kill at any point loses at most
// the configurations still in flight.
func (c *Checkpoint) Append(ci int, mean [][]float64) error {
	raw, err := EncodeCell(mean)
	if err != nil {
		return fmt.Errorf("experiment: encode checkpoint cell: %w", err)
	}
	return c.appendEncoded(ci, mean, raw)
}

// appendEncoded is Append for a block already encoded as raw by
// EncodeCell.
func (c *Checkpoint) appendEncoded(ci int, mean [][]float64, raw json.RawMessage) error {
	line, err := json.Marshal(checkpointLine{Fingerprint: c.fp, Config: ci, Mean: raw})
	if err != nil {
		return fmt.Errorf("experiment: encode checkpoint line: %w", err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("experiment: append checkpoint: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("experiment: sync checkpoint: %w", err)
	}
	c.done[ci] = mean
	return nil
}

// Close closes the underlying file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
