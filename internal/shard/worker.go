package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
)

// Worker polls a coordinator for leases and computes them. The zero value
// plus Base is usable; Run loops until the coordinator shuts down (410) or
// ctx is cancelled.
type Worker struct {
	// Base is the coordinator's URL, e.g. "http://127.0.0.1:8080".
	Base string
	// ID is the worker's stable identity; defaults to host-pid.
	ID string
	// Procs bounds how many cells of a lease compute in parallel
	// (0 = all CPUs).
	Procs int
	// Client overrides the HTTP client (tests inject the httptest one).
	Client *http.Client
	// Metrics, when non-nil, collects this worker's local run counters
	// (simulations, DES events, chunks) — the coordinator only ever sees
	// whole cells.
	Metrics *metrics.Collector
	// Backoff and MaxBackoff tune the retry loop for "no work yet" and
	// transient network errors: the delay starts at Backoff and doubles to
	// MaxBackoff. Defaults: 200ms and 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// runner computes every lease. It is replaced only when a lease names
	// other algorithms, error model or UnknownError, never for a new study
	// or grid, so its pooled cell states and shared MI plans outlive
	// studies.
	runner *experiment.Runner

	// rec records this worker's spans for the sweep trace stamped into its
	// leases; it is created (or replaced) when a lease carries a new trace
	// ID. Completed spans ship on result posts and lease polls.
	rec *span.Recorder

	// cellDelay is a test-only seam: extra blocking time per cell,
	// modelling compute happening on the worker's own core. The scaling
	// measurement (TestMeasureScaling) uses it to demonstrate worker
	// overlap on machines with fewer cores than workers.
	cellDelay time.Duration
}

// transportFailLimit is how many consecutive transport-level failures
// (connection refused, reset — not HTTP statuses) after successful contact
// make the worker conclude the coordinator process is gone and exit. A
// coordinator that merely restarts within the backoff window (~20s at the
// defaults) keeps its workers.
const transportFailLimit = 8

// noContactFailLimit bounds polling an address that never answers at all —
// a worker may legitimately start before its coordinator, but after this
// many consecutive transport failures (several minutes at the defaults) a
// typo'd -join address should fail loudly rather than spin forever.
const noContactFailLimit = 60

// Run is the worker's main loop: lease, compute, post, repeat. It returns
// nil when the coordinator reports shutdown or its address stops answering
// after contact was established, ctx.Err() on cancellation, and an error
// only for conditions retrying cannot fix (an algorithm name this build
// does not know).
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		host, _ := os.Hostname()
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	backoff := w.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	maxBackoff := w.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	delay := backoff
	contacted := false
	transportFails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, disposition, transportErr := w.requestLease(ctx)
		if transportErr {
			transportFails++
			if contacted && transportFails >= transportFailLimit {
				return nil // coordinator answered once, now unreachable: gone
			}
			if !contacted && transportFails >= noContactFailLimit {
				return fmt.Errorf("shard: coordinator %s never answered", w.Base)
			}
		} else {
			contacted = true
			transportFails = 0
		}
		switch disposition {
		case leaseGranted:
			delay = backoff // work exists; probe eagerly again afterwards
			if err := w.processLease(ctx, lease); err != nil {
				return err
			}
			continue
		case coordinatorGone:
			return nil
		case retryLater:
			// 503 (no work yet) or a transient network error; back off.
		}
		var backoffSpan span.ID
		if w.rec != nil {
			backoffSpan = w.rec.Start(span.Span{Kind: span.KindBackoff, Name: "backoff", Config: -1})
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		if w.rec != nil {
			w.rec.End(backoffSpan)
		}
		delay *= 2
		if delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

type leaseDisposition int

const (
	leaseGranted leaseDisposition = iota
	retryLater
	coordinatorGone
)

// requestLease polls /v1/lease once. transportErr reports a failure below
// HTTP (no response at all), which Run counts toward its gone-detection;
// any received status, even an error one, proves the coordinator lives.
func (w *Worker) requestLease(ctx context.Context) (l *Lease, d leaseDisposition, transportErr bool) {
	req := LeaseRequest{Worker: w.ID}
	if w.rec != nil {
		req.Spans = w.rec.Drain() // piggyback whatever finished since the last post
	}
	var lease Lease
	status, err := w.postJSON(ctx, "/v1/lease", req, &lease)
	switch {
	case err != nil:
		if w.rec != nil {
			w.rec.Restash(req.Spans) // nothing was delivered; retry later
		}
		return nil, retryLater, true
	case status == http.StatusOK:
		return &lease, leaseGranted, false
	case status == http.StatusGone:
		return nil, coordinatorGone, false
	default:
		return nil, retryLater, false
	}
}

// processLease computes every cell of the lease and posts the blocks
// back, heartbeating in the background. A lease the coordinator no
// longer recognises (expired and re-issued while we were slow) is
// abandoned silently — whoever re-leased it produces the same bytes.
func (w *Worker) processLease(parent context.Context, l *Lease) error {
	r, cell, err := w.cells(l.Job.Job)
	if err != nil {
		return err
	}

	// A lease carrying a new trace ID starts a fresh sweep: replace the
	// recorder. All worker spans parent directly on the coordinator's
	// lease span (l.Trace.Span) — which the coordinator always holds — so
	// spans shipped mid-lease never dangle in the fused trace.
	if l.Trace.Trace != 0 && (w.rec == nil || w.rec.Trace() != l.Trace.Trace) {
		w.rec = span.NewRecorder(l.Trace.Trace, w.ID)
	}
	rec := w.rec
	if rec != nil {
		leaseSpan := rec.Start(span.Span{
			Kind: span.KindLease, Name: fmt.Sprintf("lease %d (%d cfgs)", l.ID, len(l.Configs)),
			Parent: l.Trace.Span, Lease: l.ID, Config: -1,
		})
		defer rec.End(leaseSpan)
	}

	// The heartbeat goroutine renews the lease at a third of its TTL; if
	// the coordinator reports the lease dead, the remaining computations
	// are cancelled (their cells belong to someone else now).
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ttl := time.Duration(l.TTLMillis) * time.Millisecond
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				var hbSpan span.ID
				if rec != nil {
					hbSpan = rec.Start(span.Span{Kind: span.KindHeartbeat, Name: "heartbeat",
						Parent: l.Trace.Span, Lease: l.ID, Config: -1})
				}
				status, err := w.postJSON(ctx, "/v1/heartbeat", Heartbeat{Worker: w.ID, Lease: l.ID}, nil)
				if rec != nil {
					rec.End(hbSpan)
				}
				if err == nil && status != http.StatusOK {
					cancel() // lease expired or coordinator gone
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() { cancel(); <-hbDone }()

	// computeErr is a deterministic simulation failure — the one condition
	// retrying elsewhere cannot fix, reported to the coordinator below.
	// Post failures only cancel the lease: the coordinator re-issues
	// whatever was never delivered.
	computeErr := r.ForEach(ctx, l.Configs, func(ctx context.Context, ci int) error {
		start := time.Now()
		if w.cellDelay > 0 {
			select {
			case <-time.After(w.cellDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var cellSpan span.ID
		if rec != nil {
			cellSpan = rec.Start(span.Span{
				Kind: span.KindCompute, Name: fmt.Sprintf("config %d", ci),
				Parent: l.Trace.Span, Lease: l.ID, Config: ci,
			})
		}
		mean, ctrs, err := cell(ctx, ci)
		if rec != nil {
			rec.End(cellSpan)
		}
		if err != nil {
			return err
		}
		if err := w.postResult(ctx, l, ci, mean, ctrs, time.Since(start)); err != nil {
			cancel() // undeliverable; abandon the lease
		}
		return nil
	})
	if parent.Err() != nil {
		return parent.Err()
	}
	if computeErr != nil && !errors.Is(computeErr, context.Canceled) {
		// Best-effort: fail the sweep on the coordinator, like the local
		// Runner's first hard error stops the whole pool.
		w.postJSON(parent, "/v1/result", Result{ //nolint:errcheck
			Worker: w.ID, Lease: l.ID, Fingerprint: l.Job.Fingerprint,
			Config: -1, Error: computeErr.Error(),
		}, nil)
	}
	return nil
}

// postResult posts one block, retrying transient failures a few times with
// doubling delay. A 409 means the sweep moved on — drop the block.
func (w *Worker) postResult(ctx context.Context, l *Lease, ci int, mean [][]float64, ctrs experiment.CellCounters, wall time.Duration) error {
	raw, err := experiment.EncodeCell(mean)
	if err != nil {
		return err
	}
	res := Result{
		Worker: w.ID, Lease: l.ID, Fingerprint: l.Job.Fingerprint,
		Config: ci, Mean: raw, WallMillis: wall.Milliseconds(), Engine: ctrs.Engine,
		PlansBuilt: ctrs.PlansBuilt, PlansShared: ctrs.PlansShared,
	}
	rec := w.rec
	if rec != nil {
		// The report span covers the whole delivery (retries included) and
		// ships with a later post; the spans drained here — this cell's
		// compute span among them — ride this one. The coordinator dedups
		// by span ID, so a retry after a lost response cannot double-add.
		reportSpan := rec.Start(span.Span{
			Kind: span.KindReport, Name: fmt.Sprintf("report %d", ci),
			Parent: l.Trace.Span, Lease: l.ID, Config: ci,
		})
		defer rec.End(reportSpan)
		res.Spans = rec.Drain()
	}
	delay := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		status, err := w.postJSON(ctx, "/v1/result", res, nil)
		switch {
		case err == nil && status == http.StatusOK:
			return nil
		case err == nil && (status == http.StatusConflict || status == http.StatusGone):
			return nil // sweep over or superseded; nothing to deliver
		}
		if attempt >= 4 || ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("shard: post result: HTTP %d", status)
			}
			if rec != nil {
				rec.Restash(res.Spans) // undelivered; ship on a later post
			}
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		delay *= 2
	}
}

// cells returns the Runner that computes job's cells and its cell
// function, building a new Runner only when the cached one computes other
// algorithms, another error model or visibility — never for a new study
// or grid.
func (w *Worker) cells(job experiment.Job) (*experiment.Runner, func(context.Context, int) ([][]float64, experiment.CellCounters, error), error) {
	if w.runner != nil {
		if cell, err := w.runner.Cells(job); err == nil {
			return w.runner, cell, nil
		}
	}
	algos, err := experiment.AlgorithmsByName(job.Algorithms)
	if err != nil {
		return nil, nil, err
	}
	w.runner = &experiment.Runner{
		Algorithms: algos, Workers: w.Procs, ErrorModel: job.Model,
		UnknownError: job.UnknownError, Metrics: w.Metrics,
	}
	cell, err := w.runner.Cells(job)
	return w.runner, cell, err
}

// postJSON posts body and decodes a 200 response into out (when non-nil).
// The HTTP status is returned for every completed exchange; err is
// reserved for transport failures.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, err
		}
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	return resp.StatusCode, nil
}
