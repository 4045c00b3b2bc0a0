package experiment

// NaN-safe JSON for mean blocks and whole Results. encoding/json has no
// NaN literal, but a failed algorithm's mean is NaN; these helpers encode
// it as null and decode null back to NaN, exactly like the checkpoint
// always has. Go's float64 JSON round-trip is exact (shortest decimal that
// parses back to the same bits), so encode/decode cycles preserve blocks
// bit-for-bit — the property the distributed determinism tests diff on.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// EncodeCell marshals one [error][algorithm] mean block, NaN as null. The
// bytes are exactly what encoding/json writes for the block (a nil block
// or row is null, like a nil slice), without its reflection: every block
// is encoded once per completion and shipped, checkpointed and cached as
// these bytes. ±Inf has no JSON form and is an error.
func EncodeCell(mean [][]float64) (json.RawMessage, error) {
	buf := cellBufs.Get().(*[]byte)
	defer cellBufs.Put(buf)
	b, err := appendCell((*buf)[:0], mean)
	*buf = b
	if err != nil {
		return nil, err
	}
	// An exact-size copy: the result cache keeps every block it writes.
	return append(json.RawMessage(nil), b...), nil
}

// cellBufs holds EncodeCell's scratch buffers.
var cellBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendCell appends EncodeCell's bytes for mean to b.
func appendCell(b []byte, mean [][]float64) ([]byte, error) {
	if mean == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, row := range mean {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendFloat appends v the way encoding/json writes a float64: the
// shortest round-tripping decimal, in exponent form only below 1e-6 and
// from 1e21 up, with a two-digit negative exponent trimmed (e-07 → e-7).
// NaN is written as null.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) {
		return append(b, "null"...), nil
	}
	if math.IsInf(v, 0) {
		return b, fmt.Errorf("experiment: unsupported value %v in a cell block", v)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// DecodeCell unmarshals a block produced by EncodeCell, null as NaN.
func DecodeCell(data []byte) ([][]float64, error) {
	var enc [][]ckptFloat
	if err := json.Unmarshal(data, &enc); err != nil {
		return nil, err
	}
	mean := make([][]float64, len(enc))
	for i, row := range enc {
		mean[i] = make([]float64, len(row))
		for j, v := range row {
			mean[i][j] = float64(v)
		}
	}
	return mean, nil
}

// resultsJSON is the stable aggregate schema WriteJSON emits.
type resultsJSON struct {
	Grid       Grid              `json:"grid"`
	Configs    []string          `json:"configs"`
	Algorithms []string          `json:"algorithms"`
	Mean       []json.RawMessage `json:"mean"`
}

// WriteJSON renders the aggregate results as indented JSON. Two sweeps of
// the same grid and seed produce byte-identical output regardless of
// worker pool width, process topology or completion order — the property
// the shard tests (and the CI distributed-determinism job) assert with a
// plain byte diff.
func (r *Results) WriteJSON(w io.Writer) error {
	out := resultsJSON{
		Grid:       r.Grid,
		Configs:    make([]string, len(r.Configs)),
		Algorithms: r.Algorithms,
		Mean:       make([]json.RawMessage, len(r.Mean)),
	}
	for i, c := range r.Configs {
		out.Configs[i] = c.String()
	}
	for i, cell := range r.Mean {
		raw, err := EncodeCell(cell)
		if err != nil {
			return err
		}
		out.Mean[i] = raw
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
