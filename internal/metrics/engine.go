package metrics

// EngineCounters are the simulation engine's hot-path telemetry: where the
// DES inner loop spends its work, broken down by mechanism. The engine
// accumulates them with plain integer adds on its pooled run state (see
// engine.Options.Counters — the alias engine.Counters is this type), the
// experiment layer flushes one batch per sweep cell via AddEngineCounters,
// and Snapshot surfaces the fleet-wide aggregate.
//
// All fields are totals except MaxHeapDepth, which merges by maximum: it
// is the largest physical event-queue size any single run reached, the
// quantity that bounds heap sift cost.
type EngineCounters struct {
	// EventsPushed/EventsPopped count DES schedule and fire operations,
	// the master port's send ends included: the engine keeps those out of
	// the heap, but each reserves its sequence number from the kernel and
	// counts as a push and a fire. EventsReplaced is the subset of pushes
	// that took the kernel's replace-top fast path (one siftDown instead
	// of pop-sift + push-sift); LazyCancels counts completion timers
	// cancelled before firing; MaxHeapDepth counts heap slots only.
	EventsPushed   int64 `json:"events_pushed"`
	EventsPopped   int64 `json:"events_popped"`
	EventsReplaced int64 `json:"events_replaced"`
	LazyCancels    int64 `json:"lazy_cancels"`
	MaxHeapDepth   int64 `json:"max_heap_depth"`
	// SyncViewCopies counts dispatcher consults: one per Next call or
	// FaultAware callback, each handed a View. SyncViewBytes is always 0:
	// every View aliases the engine's worker states, so nothing is
	// copied. It is kept so readers of the JSON field (the end-to-end
	// benchmark's bytes-per-dispatch figure) still find it.
	SyncViewCopies int64 `json:"sync_view_copies"`
	SyncViewBytes  int64 `json:"sync_view_bytes"`
	// RNG draws by perturbation model: one draw per perturbed transfer or
	// computation. OtherDraws covers models beyond the two standard ones
	// (e.g. random walks); perfect (error-free) runs draw nothing. They
	// count the ratios a run consumes: the studies replay one recorded
	// set of ratios to every algorithm (perferr.Pair.Replay), and a
	// replayed ratio counts as a draw of its distribution just as a
	// fresh one does, so these exceed the ratios actually drawn.
	TruncNormalDraws int64 `json:"trunc_normal_draws"`
	UniformDraws     int64 `json:"uniform_draws"`
	OtherDraws       int64 `json:"other_draws"`
	// Redispatches counts chunks re-sent after a loss or timeout under
	// fault injection.
	Redispatches int64 `json:"redispatches"`
}

// Merge folds o into c: sums everywhere, maximum for MaxHeapDepth.
func (c *EngineCounters) Merge(o EngineCounters) {
	c.EventsPushed += o.EventsPushed
	c.EventsPopped += o.EventsPopped
	c.EventsReplaced += o.EventsReplaced
	c.LazyCancels += o.LazyCancels
	if o.MaxHeapDepth > c.MaxHeapDepth {
		c.MaxHeapDepth = o.MaxHeapDepth
	}
	c.SyncViewCopies += o.SyncViewCopies
	c.SyncViewBytes += o.SyncViewBytes
	c.TruncNormalDraws += o.TruncNormalDraws
	c.UniformDraws += o.UniformDraws
	c.OtherDraws += o.OtherDraws
	c.Redispatches += o.Redispatches
}

// AddEngineCounters folds one batch of engine counters (typically one
// sweep cell's worth) into the collector by Merge. Safe for concurrent
// use; the mutex is taken once per cell, far off the hot path.
func (c *Collector) AddEngineCounters(ec EngineCounters) {
	c.engMu.Lock()
	c.eng.Merge(ec)
	c.engMu.Unlock()
}
