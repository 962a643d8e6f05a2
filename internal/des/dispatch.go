package des

import (
	"fmt"

	"autohet/internal/fleet"
)

// Two-level dispatch: the cluster policy picks a cluster among those with
// at least one dispatchable replica, the replica policy picks within it,
// and a full queue falls back to scanning the cluster, then the fleet —
// mirroring the goroutine runtime's Submit/enqueue fallback. On the common
// all-dispatchable path the picks are pure index arithmetic (no per-arrival
// allocation); only fleets with degraded or deactivated replicas pay for a
// filtered candidate scan (into reusable scratch buffers).

// arrive admits and dispatches one request at the current virtual time.
// Order: brownout (cheapest — priority shedding under backlog), cluster
// pick, admission hook (after the pick so the rejection attributes to the
// cluster it would have loaded), replica pick with breaker filtering, then
// queue-full fallback. The cluster pick moving ahead of the Admit hook only
// changes behavior for admission-shed requests under a state-consuming
// cluster policy (round robin / power-of-two) — runs stay deterministic.
func (f *Fleet) arrive(id int, arrival, budget float64) {
	f.submitted.Add(1)
	f.arrivalsTick++
	f.window(arrival).Arrived++
	if f.logging {
		f.logf("A t=%.3f id=%d\n", arrival, id)
	}
	if bp := f.res.Brownout; bp != nil && bp.Shed(bp.Priority(id), f.queued, f.active) {
		f.brownoutShed.Add(1)
		f.shedReq(id, "brownout")
		return
	}
	cl := f.pickCluster()
	if cl == nil {
		f.shedReq(id, "noreplica")
		return
	}
	if f.cfg.Admit != nil && !f.cfg.Admit.Admit(f.signal()) {
		f.admissionShed++
		cl.admissionShed++
		f.shedReq(id, "admit")
		return
	}
	var r *simReplica
	if f.cfg.Shards > 1 {
		// Sharded admission dispatches into stage 0 only; the stage-hop
		// events route the later stages.
		r = f.pickStage(0)
	} else {
		r = f.pickInCluster(cl)
	}
	if r == nil && f.breakersOn {
		// Breakers filtered every candidate the policy offered; any
		// routable replica beats shedding.
		r = f.anyRoutable()
	}
	if r == nil {
		f.shedReq(id, "noreplica")
		return
	}
	if r.queue.n >= f.cfg.QueueDepth {
		if f.cfg.Shards > 1 {
			r = f.stageFallback(0, r)
		} else {
			r = f.fallback(r)
		}
		if r == nil {
			f.shedReq(id, "full")
			return
		}
	}
	st := f.newState(id, arrival, budget)
	if st != nil {
		st.primary = r
		st.attempts = 1
		st.live = 1
	}
	f.route(r)
	f.enqueue(r, simReq{id: id, arrival: arrival, budget: budget, enqueued: arrival, st: st})
	f.armHedge(st)
}

// shedReq refuses one arrival. The "noreplica" reason is an outage signal
// (no healthy routable replica) and counts as Unroutable; everything else
// is overload backpressure and counts as Shed — chaos experiments need the
// two apart to tell blast radius from load shedding.
func (f *Fleet) shedReq(id int, reason string) {
	now := f.eng.Now()
	if reason == "noreplica" {
		f.unroutable.Add(1)
		f.window(now).Unroutable++
	} else {
		f.shed.Add(1)
		f.window(now).Shed++
	}
	if f.logging {
		f.logf("H t=%.3f id=%d reason=%s\n", now, id, reason)
	}
}

// enqueue places the request on r's admission queue and starts service if
// the replica is idle.
func (f *Fleet) enqueue(r *simReplica, rq simReq) {
	r.queue.push(rq)
	f.queued++
	if q := r.cl.queued.Add(1); q > r.cl.peakQueued {
		r.cl.peakQueued = q
	}
	if f.logging {
		f.logf("D t=%.3f id=%d r=%s q=%d\n", f.eng.Now(), rq.id, r.name, r.queue.n)
	}
	if r.collecting {
		// A collecting batch fills early when the queue reaches MaxBatch.
		if r.queue.n >= f.cfg.MaxBatch {
			f.eng.Cancel(r.collect)
			r.collecting = false
			f.executeBatch(r, f.cfg.MaxBatch, false)
			f.maybeService(r)
		}
		return
	}
	f.maybeService(r)
}

// pickReplica applies the two-level policy. Returns nil when no
// dispatchable replica exists.
func (f *Fleet) pickReplica() *simReplica {
	cl := f.pickCluster()
	if cl == nil {
		return nil
	}
	return f.pickInCluster(cl)
}

// pickCluster selects among clusters with dispatchable replicas. A
// single-cluster fleet short-circuits without consuming policy state, so
// flat fleets consume the same sampler stream as the goroutine runtime.
func (f *Fleet) pickCluster() *simCluster {
	if len(f.clusters) == 1 {
		cl := f.clusters[0]
		if cl.dispatchable == 0 {
			return nil
		}
		return cl
	}
	cands := f.clusterBuf[:0]
	for _, cl := range f.clusters {
		if cl.dispatchable > 0 {
			cands = append(cands, cl)
		}
	}
	f.clusterBuf = cands[:0] // retain grown storage
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	switch f.cfg.ClusterPolicy {
	case fleet.LeastOutstanding:
		best, bestScore := cands[0], cands[0].loadScore()
		for _, cl := range cands[1:] {
			if s := cl.loadScore(); s < bestScore {
				best, bestScore = cl, s
			}
		}
		return best
	case fleet.JoinShortestQueue:
		best, bestScore := cands[0], cands[0].queueScore()
		for _, cl := range cands[1:] {
			if s := cl.queueScore(); s < bestScore {
				best, bestScore = cl, s
			}
		}
		return best
	case fleet.PowerOfTwo:
		i := f.rng.Intn(len(cands))
		j := f.rng.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		a, b := cands[i], cands[j]
		if b.queueScore() < a.queueScore() {
			return b
		}
		return a
	default: // RoundRobin
		f.clusterRR++
		return cands[f.clusterRR%uint64(len(cands))]
	}
}

// pickInCluster applies the replica policy inside cl, mirroring the
// goroutine runtime's pick: the single-candidate case short-circuits
// without touching policy state, and round robin / power-of-two index over
// the dispatchable set in construction order.
func (f *Fleet) pickInCluster(cl *simCluster) *simReplica {
	// Fast path: every replica dispatchable — index arithmetic only.
	// Breakers force the filtered path: an open breaker must drop its
	// replica from the candidate set even when all are dispatchable.
	if !f.breakersOn && cl.dispatchable == len(cl.replicas) {
		return f.pickAmong(&cl.rrNext, cl.replicas)
	}
	now := f.eng.Now()
	cands := f.replicaBuf[:0]
	for _, r := range cl.replicas {
		if r.dispatchable() && (!f.breakersOn || r.canRoute(now)) {
			cands = append(cands, r)
		}
	}
	f.replicaBuf = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	return f.pickAmong(&cl.rrNext, cands)
}

// stageReplicas returns the replicas serving pipeline stage s.
func (f *Fleet) stageReplicas(s int) []*simReplica {
	return f.replicas[f.stageLo[s]:f.stageLo[s+1]]
}

// stageTransfer is the priced activation handoff between stages s and s+1.
func (f *Fleet) stageTransfer(s int) float64 {
	if f.cfg.StageTransferNS == nil {
		return 0
	}
	return f.cfg.StageTransferNS[s]
}

// pickStage applies the replica policy over stage s's dispatchable replicas,
// with a per-stage round-robin cursor — the DES mirror of the goroutine
// fleet's stage-scoped pick.
func (f *Fleet) pickStage(s int) *simReplica {
	cands := f.replicaBuf[:0]
	for _, r := range f.stageReplicas(s) {
		if r.dispatchable() {
			cands = append(cands, r)
		}
	}
	f.replicaBuf = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	return f.pickAmong(&f.stageRR[s], cands)
}

// stageFallback scans stage s for any dispatchable replica with queue space
// after the picked one was full. Unlike the unsharded fallback it never
// leaves the stage: a request cannot skip ahead in the pipeline.
func (f *Fleet) stageFallback(s int, full *simReplica) *simReplica {
	for _, r := range f.stageReplicas(s) {
		if r != full && r.dispatchable() && r.queue.n < f.cfg.QueueDepth {
			return r
		}
	}
	return nil
}

// onStageHop lands one request at stage s after its priced transfer from
// stage s−1 (the event fires at the hop-arrival instant, which becomes the
// queue-join time; arrival stays the original admission time so budgets and
// latency span the whole chain). A dead end — no dispatchable stage replica
// with queue space — fails the request: it was admitted long ago, so this is
// a delivery failure, not backpressure shedding.
func (f *Fleet) onStageHop(id, s int, arrival float64) {
	r := f.pickStage(s)
	if r != nil && r.queue.n >= f.cfg.QueueDepth {
		r = f.stageFallback(s, r)
	}
	if r == nil {
		f.failed.Add(1)
		f.window(f.eng.Now()).Failed++
		if f.logging {
			f.logf("N t=%.3f id=%d s=%d reason=nostage\n", f.eng.Now(), id, s)
		}
		return
	}
	f.enqueue(r, simReq{id: id, arrival: arrival, budget: f.budgetNS, enqueued: f.eng.Now()})
}

func (f *Fleet) pickAmong(rr *uint64, cands []*simReplica) *simReplica {
	if len(cands) == 1 {
		return cands[0]
	}
	switch f.cfg.Policy {
	case fleet.LeastOutstanding:
		best, bestScore := cands[0], cands[0].loadScore()
		for _, r := range cands[1:] {
			if s := r.loadScore(); s < bestScore {
				best, bestScore = r, s
			}
		}
		return best
	case fleet.JoinShortestQueue:
		best, bestScore := cands[0], cands[0].queueScore()
		for _, r := range cands[1:] {
			if s := r.queueScore(); s < bestScore {
				best, bestScore = r, s
			}
		}
		return best
	case fleet.PowerOfTwo:
		i := f.rng.Intn(len(cands))
		j := f.rng.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		a, b := cands[i], cands[j]
		if b.queueScore() < a.queueScore() {
			return b
		}
		return a
	default: // RoundRobin
		*rr++
		return cands[*rr%uint64(len(cands))]
	}
}

// fallback scans for any dispatchable replica with queue space after the
// picked one was full: first the rest of its cluster, then the whole fleet
// in construction order (the goroutine runtime's backpressure scan).
func (f *Fleet) fallback(full *simReplica) *simReplica {
	now := f.eng.Now()
	ok := func(r *simReplica) bool {
		return r.dispatchable() && (!f.breakersOn || r.canRoute(now)) && r.queue.n < f.cfg.QueueDepth
	}
	for _, r := range full.cl.replicas {
		if r != full && ok(r) {
			return r
		}
	}
	for _, r := range f.replicas {
		if r != full && r.cl != full.cl && ok(r) {
			return r
		}
	}
	return nil
}

// logf appends one deterministic event-log line when logging is enabled.
func (f *Fleet) logf(format string, args ...any) {
	if f.log == nil {
		return
	}
	fmt.Fprintf(f.log, format, args...)
}
