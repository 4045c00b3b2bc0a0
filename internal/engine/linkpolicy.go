package engine

// Link arbitration for multi-job runs. The master's serialised port is the
// shared resource the concurrent loads contend for (Gallet/Robert/Vivien,
// "Scheduling multiple divisible loads"); a LinkPolicy decides which job is
// offered a freed port slot first. Policies are pure orderings over the
// jobs' arrival, priority and granted volume, so arbitration is
// deterministic: the engine offers the slot to each job's dispatcher in
// policy order (ties always broken on the job index) until one produces a
// chunk.

// LinkPolicy orders jobs competing for the master's port. The set is
// closed — FCFS, StrictPriority and WeightedShare — so the engine's
// selection scan compares each policy's keys inline (multi.go,
// selectBest); ties always go to the lower job index.
type LinkPolicy interface {
	// Name identifies the policy in reports ("fcfs", "priority", ...).
	Name() string
	kind() linkKind
}

// linkKind is a built-in policy; its zero value is FCFS, the default.
type linkKind uint8

const (
	// polFCFS serves jobs strictly in arrival order: the earliest-arrived
	// job sends whenever its dispatcher wants to; later jobs only get the
	// port when every earlier one declines (typically because all its
	// workers are busy or its workload is fully dispatched).
	polFCFS linkKind = iota
	// polPriority serves the lowest Priority class first, arrival order
	// within a class.
	polPriority
	// polWeighted implements weighted fair sharing of the port in the
	// deficit round-robin style: the job with the smallest
	// weight-normalised granted volume goes first, so in saturation each
	// job's share of the link converges to Weight / ΣWeight while idle
	// jobs never bank unbounded credit (the ordering looks only at what
	// was actually granted).
	polWeighted
)

func (k linkKind) Name() string   { return [...]string{"fcfs", "priority", "weighted"}[k] }
func (k linkKind) kind() linkKind { return k }

// FCFS returns first-come-first-served link arbitration.
func FCFS() LinkPolicy { return polFCFS }

// StrictPriority returns strict-priority link arbitration: a job only
// transfers when no higher-priority job wants the port.
func StrictPriority() LinkPolicy { return polPriority }

// WeightedShare returns weighted-round-robin link arbitration over the
// jobs' Weight fields.
func WeightedShare() LinkPolicy { return polWeighted }

// LinkPolicies returns the built-in policies, for sweeps and CLIs.
func LinkPolicies() []LinkPolicy {
	return []LinkPolicy{FCFS(), StrictPriority(), WeightedShare()}
}

// LinkPolicyByName resolves one of the built-in policy names; it returns
// nil for an unknown name.
func LinkPolicyByName(name string) LinkPolicy {
	for _, p := range LinkPolicies() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
