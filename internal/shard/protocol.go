// Package shard scales a parameter sweep across processes: a coordinator
// partitions the pending configuration set into batched leases and serves
// them over HTTP to worker processes, which compute each configuration's
// mean block through a worker-lifetime experiment.Runner and post it back.
//
// Determinism is the design invariant. Cell results depend only on
// (BaseSeed, configuration values, error value, repetition) — never on
// which worker computed them, in what order, or how often a lease was
// re-issued — and the coordinator merges blocks by configuration index, so
// the aggregate Results are byte-identical to a single-process sweep on
// the same grid and seed for any topology. Fault handling follows from
// that: leases carry a TTL and are kept alive by heartbeats; when a worker
// vanishes, its lease expires and the coordinator re-issues the
// configurations to whoever asks next; a straggler's late result for an
// already re-issued configuration is accepted idempotently (it is the same
// bytes by construction).
//
// The wire format is JSON over four endpoints:
//
//	POST /v1/lease      LeaseRequest -> Lease   (503 no work yet, 410 shut down)
//	POST /v1/result     Result       -> 200     (409 stale fingerprint, 410 shut down)
//	POST /v1/heartbeat  Heartbeat    -> 200     (404 lease expired/unknown)
//	GET  /v1/status     Status
//
// Schedulers cross the wire as the names Scheduler.Name() prints; workers
// reconstruct the coordinator's algorithm slice via
// experiment.AlgorithmsByName, so both sides must run the same build — the
// fingerprint guards the sweep's parameters, not the code version.
package shard

import (
	"encoding/json"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
)

// JobSpec describes one sweep to the workers: everything a worker needs to
// recompute any configuration of the grid bit-identically.
type JobSpec struct {
	// Fingerprint identifies the sweep (experiment.Fingerprint of the
	// fields below); every Result must echo it.
	Fingerprint string `json:"fingerprint"`
	// Grid is the full sweep grid; workers index into Grid.Configs().
	Grid experiment.Grid `json:"grid"`
	// Algorithms are scheduler names, index 0 the baseline.
	Algorithms []string `json:"algorithms"`
	// Model selects the error distribution.
	Model experiment.ErrorModelKind `json:"model"`
	// UnknownError hides the error magnitude from the schedulers.
	UnknownError bool `json:"unknown_error"`
}

// LeaseRequest asks the coordinator for a batch of configurations.
type LeaseRequest struct {
	// Worker is the requester's self-chosen stable identity (it keys the
	// coordinator's per-worker stats).
	Worker string `json:"worker"`
	// Spans ships the worker's completed trace spans opportunistically:
	// whatever finished since the last post rides along on the next lease
	// poll (final lease/backoff spans have no result post to ride on).
	Spans []span.Span `json:"spans,omitempty"`
}

// Lease grants a batch of configurations for a bounded time.
type Lease struct {
	ID  uint64  `json:"id"`
	Job JobSpec `json:"job"`
	// Configs are indices into Job.Grid.Configs().
	Configs []int `json:"configs"`
	// TTLMillis is the lease lifetime; heartbeats renew it. A lease that
	// outlives its TTL without a heartbeat is re-issued to other workers.
	TTLMillis int64 `json:"ttl_ms"`
	// Trace is the sweep's span context: the trace ID every span of this
	// sweep carries and the coordinator-side lease span the worker's spans
	// hang off. The zero Context disables worker tracing.
	Trace span.Context `json:"trace"`
}

// Heartbeat renews a lease while its configurations are still computing.
type Heartbeat struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// Result posts one completed configuration.
type Result struct {
	Worker string `json:"worker"`
	// Lease is informational; a result is accepted on fingerprint + config
	// validity even if its lease already expired (the work is identical by
	// construction, so discarding it would only waste compute).
	Lease       uint64 `json:"lease"`
	Fingerprint string `json:"fingerprint"`
	Config      int    `json:"config"`
	// Mean is the [error][algorithm] block in experiment.EncodeCell form.
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
	// Done / Total count configurations of the active sweep (Done includes
	// restored ones). Queued and Leased partition the remainder.
	Done    int            `json:"done"`
	Total   int            `json:"total"`
	Queued  int            `json:"queued"`
	Leased  int            `json:"leased"`
	Workers []WorkerStatus `json:"workers,omitempty"`
}
