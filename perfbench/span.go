package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded by the
// benchmark around a call into one of the program's layers.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Cell identifies the sweep cell the span belongs to; spans of one
	// cell share it. -1 marks spans that belong to no single cell.
	Cell  int   `json:"cell"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced passes run the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its ID (0 on a nil
// recorder).
func (r *recorder) add(name string, parent uint64, cell int, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open records an interval whose end is not known yet; close sets it.
func (r *recorder) open(name string, parent uint64, cell int) uint64 {
	now := time.Now()
	return r.add(name, parent, cell, now, now)
}

func (r *recorder) close(id uint64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
