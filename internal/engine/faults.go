package engine

// Fault injection and recovery in the core: faults replayed from a
// fault.Schedule, loss of the attempts they hit, completion timeouts, and
// re-dispatch of lost work from one run-level queue serving every job.

import (
	"fmt"

	"rumr/internal/fault"
	"rumr/internal/obs"
)

// lose marks pc's current attempt as lost now and queues it for re-dispatch
// (or writes its work off, past the attempt cap or with recovery
// disabled). Worker-state bookkeeping is the caller's job.
func (mr *multiRun) lose(pc *mjChunk, reason string) {
	pc.phase = chLost
	if pc.timer {
		pc.timer = false
		mr.disarm()
	}
	if mr.tr != nil && pc.record >= 0 {
		rec := &mr.tr.Records[pc.record]
		rec.Lost = true
		rec.LostAt = mr.sim.Now()
	}
	mr.lostChunks++
	mr.emitChunk(obs.KindChunkLost, pc, pc.chunk.Worker, pc.attempt, reason)
	if mr.rec.Enabled && (mr.rec.MaxAttempts <= 0 || pc.attempt < mr.rec.MaxAttempts) {
		mr.lostQueue = append(mr.lostQueue, pc)
	} else {
		mr.lostWork += pc.chunk.Size
	}
}

// killCompute abandons the chunk a worker is computing (crash or
// timeout): the partial computation is recorded as busy time up to now
// and the worker's CPU is freed.
func (mr *multiRun) killCompute(wi int) *mjChunk {
	w := &mr.workers[wi]
	pc := w.current
	if pc == nil {
		return nil
	}
	w.current = nil
	mr.disarm() // the compute end of pc
	mr.states[wi].Computing = false
	mr.touch(wi)
	if mr.tr != nil && pc.record >= 0 {
		mr.tr.Records[pc.record].CompEnd = mr.sim.Now()
	}
	return pc
}

// pickTarget selects the re-dispatch destination: the live, reachable
// worker with the least pending work, preferring any worker other
// than the one that just failed the chunk; ties break on the lowest
// index, so recovery is deterministic.
func (mr *multiRun) pickTarget(avoid int) int {
	best, bestLoad := -1, 0
	for pass := 0; pass < 2 && best < 0; pass++ {
		for i := range mr.states {
			st := &mr.states[i]
			if st.Down || st.LinkDown || (pass == 0 && i == avoid) {
				continue
			}
			load := st.Queued + st.InFlight
			if st.Computing {
				load++
			}
			if best < 0 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
	}
	return best
}

// redispatch re-sends the oldest lost chunk to the least-loaded live
// worker. It reports false, leaving the queue as is, when no worker can
// receive it right now.
func (mr *multiRun) redispatch() bool {
	pc := mr.lostQueue[0]
	target := mr.pickTarget(pc.chunk.Worker)
	if target < 0 {
		return false
	}
	copy(mr.lostQueue, mr.lostQueue[1:])
	mr.lostQueue[len(mr.lostQueue)-1] = nil
	mr.lostQueue = mr.lostQueue[:len(mr.lostQueue)-1]
	if mr.tr != nil && pc.record >= 0 {
		mr.tr.Records[pc.record].Redispatched = true
	}
	pc.chunk.Worker = target
	pc.attempt++
	mr.redispatches++
	mr.redispatchedWork += pc.chunk.Size
	if mr.redispatches > maxChunks {
		mr.fail(fmt.Errorf("engine: recovery exceeded %d re-dispatches; livelocked fault scenario?", maxChunks))
		return true
	}
	if pc.attempt > maxAttempt {
		mr.fail(fmt.Errorf("engine: chunk %d exceeds the event payload's attempt limit %d", pc.seq, maxAttempt))
		return true
	}
	mr.emitChunk(obs.KindRedispatch, pc, target, pc.attempt, "re-dispatching lost chunk to least-loaded live worker")
	mr.send(pc)
	return true
}

// armTimeout starts pc's completion timer: the predicted time for the
// transfer, the destination's current backlog and the computation,
// scaled by the recovery policy (doubling per attempt). The caller checks
// that the policy uses timeouts.
func (mr *multiRun) armTimeout(pc *mjChunk) {
	wi := pc.chunk.Worker
	spec := &mr.p.Workers[wi]
	w := &mr.workers[wi]
	backlog := 0.0
	queued := len(w.queue)
	for _, q := range w.queue {
		backlog += q.chunk.Size
	}
	if w.current != nil {
		backlog += w.current.chunk.Size
		queued++
	}
	pred := spec.NLat + pc.chunk.Size/spec.B + spec.TLat +
		float64(queued+1)*spec.CLat + (backlog+pc.chunk.Size)/spec.S
	pc.timer = true
	mr.sim.After(mr.rec.TimeoutFor(pred, pc.attempt), pack(evTimeout, pc.seq, 0, pc.attempt))
}

func (mr *multiRun) onTimeout(pc *mjChunk) {
	pc.timer = false
	switch pc.phase {
	case chDone, chLost:
		return
	case chSending:
		// Still in transit: written off now; onArrive
		// sees chLost and only drops the in-flight counter.
		mr.lose(pc, "completion timeout in transit")
	case chQueued:
		w := &mr.workers[pc.chunk.Worker]
		for i, q := range w.queue {
			if q == pc {
				w.queue = append(w.queue[:i], w.queue[i+1:]...)
				break
			}
		}
		mr.states[pc.chunk.Worker].Queued--
		mr.touch(pc.chunk.Worker)
		mr.lose(pc, "completion timeout while queued")
	case chComputing:
		mr.killCompute(pc.chunk.Worker)
		mr.lose(pc, "completion timeout: task killed")
		mr.startCompute(pc.chunk.Worker)
	}
	mr.kick()
}

// emitFault reports a platform-level fault now. It belongs to no job, so
// it is tagged -1 on a multi-job stream.
func (mr *multiRun) emitFault(kind obs.Kind, worker int, reason string) {
	mr.emit(-1, obs.Event{Kind: kind, Time: mr.sim.Now(), Worker: worker, Seq: -1, Reason: reason})
}

// notifyFaultAware tells every fault-aware dispatcher about a crash or a
// rejoin.
func (mr *multiRun) notifyFaultAware(worker int, up bool) {
	for j := range mr.jobs {
		js := &mr.jobs[j]
		if js.faD == nil {
			continue
		}
		v := mr.consult()
		if up {
			js.faD.OnWorkerUp(worker, mr.sim.Now(), v)
		} else {
			js.faD.OnWorkerDown(worker, mr.sim.Now(), v)
		}
	}
}

func (mr *multiRun) applyFault(fe fault.Event) {
	w, st := &mr.workers[fe.Worker], &mr.states[fe.Worker]
	switch fe.Kind {
	case fault.Crash:
		if st.Down {
			return
		}
		st.Down = true
		mr.touch(fe.Worker)
		mr.emitFault(obs.KindWorkerCrash, fe.Worker, "worker crashed")
		if pc := mr.killCompute(fe.Worker); pc != nil {
			mr.lose(pc, "worker crashed while computing")
		}
		for i, pc := range w.queue {
			mr.lose(pc, "worker crashed with chunk queued")
			w.queue[i] = nil
		}
		w.queue = w.queue[:0]
		st.Queued = 0
		// In-flight data is heading to a dead machine; it is lost on
		// arrival, where onArrive checks liveness.
		mr.notifyFaultAware(fe.Worker, false)
		mr.kick() // lost work may be re-dispatched elsewhere right away
	case fault.Rejoin:
		if !st.Down {
			return
		}
		st.Down = false
		st.LinkDown = false
		w.slow = 1
		mr.touch(fe.Worker)
		mr.emitFault(obs.KindWorkerRejoin, fe.Worker, "worker rejoined")
		mr.notifyFaultAware(fe.Worker, true)
		mr.kick()
	case fault.LinkDown:
		if st.Down || st.LinkDown {
			return
		}
		st.LinkDown = true
		mr.touch(fe.Worker)
		mr.emitFault(obs.KindLinkDown, fe.Worker, "link outage")
	case fault.LinkUp:
		if st.Down || !st.LinkDown {
			return
		}
		st.LinkDown = false
		mr.touch(fe.Worker)
		mr.emitFault(obs.KindLinkUp, fe.Worker, "link restored")
		mr.kick()
	case fault.SlowStart:
		if st.Down {
			return
		}
		w.slow = fe.Factor
		if mr.ev != nil {
			mr.emitFault(obs.KindSlowdown, fe.Worker, fmt.Sprintf("straggler: compute slowed %gx", fe.Factor))
		}
	case fault.SlowEnd:
		if st.Down {
			return
		}
		w.slow = 1
		mr.emitFault(obs.KindSlowdown, fe.Worker, "straggler recovered")
	}
}
