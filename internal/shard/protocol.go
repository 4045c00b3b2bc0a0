// Package shard scales a study across processes: a coordinator — the
// experiment.Fleet of a Runner — partitions the pending cells of any
// study (the paper sweep, the multi-job, resilience or heterogeneity
// study) into batched leases and serves them over HTTP to worker
// processes, which compute each cell's block through a worker-lifetime
// experiment.Runner and post it back.
//
// Determinism is the design invariant. Cell results depend only on the
// study's job and the cell — never on which worker computed them, in what
// order, or how often a lease was re-issued — and the Runner merges
// blocks by cell index, so the aggregate results are byte-identical to a
// single-process run of the same study for any topology. Fault handling
// follows from that: leases carry a TTL and are kept alive by heartbeats;
// when a worker vanishes, its lease expires and the coordinator re-issues
// the cells to whoever asks next; a straggler's late result for an
// already re-issued cell is accepted idempotently (it is the same bytes
// by construction). A posted block is held to the study's value rule
// (experiment.SweepState.Accepts), like a restored one.
//
// The wire format is JSON over four endpoints:
//
//	POST /v1/lease      LeaseRequest -> Lease   (503 no work yet, 410 shut down)
//	POST /v1/result     Result       -> 200     (400 bad block, 409 stale fingerprint, 410 shut down)
//	POST /v1/heartbeat  Heartbeat    -> 200     (404 lease expired/unknown)
//	GET  /v1/status     Status
//
// Schedulers cross the wire as the names Scheduler.Name() prints; workers
// reconstruct the coordinator's algorithm slice via
// experiment.AlgorithmsByName, so both sides must run the same build — the
// fingerprint guards the study's parameters, not the code version.
package shard

import (
	"encoding/json"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
)

// JobSpec describes one study wave to the workers: everything a worker
// needs to recompute any of its cells bit-identically.
type JobSpec struct {
	// Fingerprint identifies the study (its grid, algorithms, error model
	// and visibility); every Result must echo it.
	Fingerprint string `json:"fingerprint"`
	// Job names the study and carries its grid; workers compute its
	// cells through experiment.Runner.Cells.
	experiment.Job
}

// LeaseRequest asks the coordinator for a batch of cells.
type LeaseRequest struct {
	// Worker is the requester's self-chosen stable identity (it keys the
	// coordinator's per-worker stats).
	Worker string `json:"worker"`
	// Spans ships the worker's completed trace spans opportunistically:
	// whatever finished since the last post rides along on the next lease
	// poll (final lease/backoff spans have no result post to ride on).
	Spans []span.Span `json:"spans,omitempty"`
}

// Lease grants a batch of cells for a bounded time.
type Lease struct {
	ID  uint64  `json:"id"`
	Job JobSpec `json:"job"`
	// Configs are indices of the study's cells (for the paper sweep,
	// indices into Grid.Configs()).
	Configs []int `json:"configs"`
	// TTLMillis is the lease lifetime; heartbeats renew it. A lease that
	// outlives its TTL without a heartbeat is re-issued to other workers.
	TTLMillis int64 `json:"ttl_ms"`
	// Trace is the sweep's span context: the trace ID every span of this
	// sweep carries and the coordinator-side lease span the worker's spans
	// hang off. The zero Context disables worker tracing.
	Trace span.Context `json:"trace"`
}

// Heartbeat renews a lease while its cells are still computing.
type Heartbeat struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// Result posts one completed cell.
type Result struct {
	Worker string `json:"worker"`
	// Lease is informational; a result is accepted on fingerprint + config
	// validity even if its lease already expired (the work is identical by
	// construction, so discarding it would only waste compute).
	Lease       uint64 `json:"lease"`
	Fingerprint string `json:"fingerprint"`
	Config      int    `json:"config"`
	// Mean is the cell's block in experiment.EncodeCell form.
	Mean json.RawMessage `json:"mean"`
	// WallMillis is how long the block took to compute, for the
	// coordinator's config-wall histogram and ETA.
	WallMillis int64 `json:"wall_ms"`
	// Error, when non-empty, reports a deterministic compute failure (a
	// scheduler erroring on a configuration) instead of a block; it fails
	// the whole sweep, mirroring the local Runner's first-error semantics.
	// Config is -1 on error reports. Transient worker trouble is never
	// reported — the lease just expires and the work is re-issued.
	Error string `json:"error,omitempty"`
	// Engine is the cell's engine hot-path telemetry, merged into the
	// coordinator's metrics so /metrics and /dashboard aggregate the
	// whole fleet.
	Engine metrics.EngineCounters `json:"engine"`
	// PlansBuilt and PlansShared are the cell's plan counts (see
	// metrics.Collector.AddPlans), summed into the coordinator's metrics;
	// results of workers that predate the fields decode as zero.
	PlansBuilt  int `json:"plans_built,omitempty"`
	PlansShared int `json:"plans_shared,omitempty"`
	// Spans are the worker's completed trace spans (this cell's compute
	// span plus anything else that finished since the last post), fused
	// into the coordinator's sweep trace.
	Spans []span.Span `json:"spans,omitempty"`
}

// WorkerStatus is one worker's lease accounting, served by /v1/status and
// the -debug-addr /shards endpoint.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// LeasedConfigs counts configurations ever granted to this worker,
	// including re-issues.
	LeasedConfigs int64 `json:"leased_configs"`
	// Completed counts accepted result posts.
	Completed int64 `json:"completed"`
	// ExpiredLeases counts leases the coordinator reclaimed from this
	// worker after their TTL lapsed.
	ExpiredLeases int64 `json:"expired_leases"`
	// LastSeenSec is seconds since the worker's last request.
	LastSeenSec float64 `json:"last_seen_sec"`
}

// Status is the coordinator's public progress snapshot.
type Status struct {
	// Active reports whether a sweep is currently being served.
	Active      bool   `json:"active"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Done / Total count cells of the active study (Done includes restored
	// ones). Queued and Leased partition the current wave's remainder.
	Done    int            `json:"done"`
	Total   int            `json:"total"`
	Queued  int            `json:"queued"`
	Leased  int            `json:"leased"`
	Workers []WorkerStatus `json:"workers,omitempty"`
}
