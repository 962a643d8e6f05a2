package des

import (
	"fmt"
	"math"

	"autohet/internal/chaos"
	"autohet/internal/fleet"
)

// Two-level dispatch: the cluster policy picks a cluster among those with
// at least one dispatchable replica, the replica policy picks within it,
// and a full queue falls back to scanning the cluster, then the fleet —
// mirroring the goroutine runtime's Submit/enqueue fallback.
//
// Picks cost O(1) or O(log n) and decide exactly what a linear filtered scan
// over the candidates would (FuzzClusterPick checks this after every kind of
// state change):
//
//   - Routability is bookkept incrementally. Every crash, restart, fault
//     storm and scale action updates its own replica's cluster count and
//     the fleet's live-cluster count (noteDispatch); breaker state is cached
//     per replica with a per-cluster list of tripped ones (noteBreaker).
//   - Round robin and power-of-two index the dispatchable set in
//     construction order. While every replica of a cluster (or every
//     cluster) is routable that set is the replica (cluster) slice itself,
//     so the pick is index arithmetic; otherwise it is a filtered scan.
//   - jsq and least-outstanding read an argmin tree per cluster, keyed by
//     queueScore/loadScore with +Inf for replicas that are not dispatchable
//     or whose breaker is tripped, ties to the lower index — pickAmong's
//     strict < keeps the first of equal scores. Tripped replicas whose
//     breaker admits a probe now are merged in by a scan of the cluster's
//     short tripped list.
//   - A closed breaker always admits and OnRoute on it is a no-op, so only
//     tripped breakers are ever locked on the pick path.
//
// Cluster-level jsq/lo still scan the live clusters (O(#clusters)).

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
// the replica is idle. The tree key is refreshed once, at the end: a request
// that starts service at once leaves the key where it was, so the tree is
// not touched.
func (f *Fleet) enqueue(r *simReplica, rq simReq) {
	r.queue.push(rq)
	f.queued++
	if q := r.cl.queued.Add(1); q > r.cl.peakQueued {
		r.cl.peakQueued = q
	}
	if f.logging {
		f.logf("D t=%.3f id=%d r=%s q=%d\n", f.eng.Now(), rq.id, r.name, r.queue.n)
	}
	if !r.collecting {
		f.maybeService(r)
	} else if r.queue.n >= f.cfg.MaxBatch {
		// A collecting batch fills early when the queue reaches MaxBatch.
		f.eng.Cancel(r.collect)
		r.collecting = false
		f.executeBatch(r, f.cfg.MaxBatch, false)
		f.maybeService(r)
	}
	f.touch(r)
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
	cands := f.clusters
	if f.live < len(f.clusters) {
		cands = f.clusterBuf[:0]
		for _, cl := range f.clusters {
			if cl.dispatchable > 0 {
				cands = append(cands, cl)
			}
		}
		f.clusterBuf = cands[:0] // retain grown storage
	}
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
	if f.treePick {
		if r := f.treeMin(cl); r != nil {
			return r
		}
		// No finite key: no replica of the cluster is routable, and the
		// filtered scan below returns nil.
	} else if len(cl.tripped) == 0 && cl.dispatchable == len(cl.replicas) {
		// Every replica routable: the candidate set is the cluster.
		return f.pickAmong(&cl.rrNext, cl.replicas)
	}
	now := f.eng.Now()
	cands := f.replicaBuf[:0]
	for _, r := range cl.replicas {
		if r.dispatchable() && r.canRoute(now) {
			cands = append(cands, r)
		}
	}
	f.replicaBuf = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	return f.pickAmong(&cl.rrNext, cands)
}

// treeMin is the jsq/lo pick: the tree's argmin over untripped dispatchable
// replicas, merged with the tripped ones whose breaker admits a probe now.
// nil when no candidate has a finite key.
func (f *Fleet) treeMin(cl *simCluster) *simReplica {
	best, key := cl.tree.min()
	if len(cl.tripped) > 0 {
		now := f.eng.Now()
		for _, r := range cl.tripped {
			if !r.dispatchable() || !r.breaker.CanRoute(now) {
				continue
			}
			if k := f.score(r); k < key || (k == key && r.idx < best) {
				best, key = r.idx, k
			}
		}
	}
	if math.IsInf(key, 1) {
		return nil
	}
	return cl.replicas[best]
}

// score is the replica policy's jsq/lo key.
func (f *Fleet) score(r *simReplica) float64 {
	if f.byLoad {
		return r.loadScore()
	}
	return r.queueScore()
}

// pickKey is r's argmin-tree key: its score while it takes traffic without
// a breaker check, +Inf otherwise.
func (f *Fleet) pickKey(r *simReplica) float64 {
	if !r.dispatchable() || r.tripped {
		return math.Inf(1)
	}
	return f.score(r)
}

// touch refreshes r's tree key after its queue, in-flight count, health,
// routability or breaker changed.
func (f *Fleet) touch(r *simReplica) {
	if f.treePick {
		r.cl.tree.set(r.idx, f.pickKey(r))
	}
}

// noteDispatch keeps the routability bookkeeping current after a change to
// r's active, health or crashed state; was is r.dispatchable() from before
// the change.
func (f *Fleet) noteDispatch(r *simReplica, was bool) {
	if is := r.dispatchable(); is != was {
		cl := r.cl
		if is {
			cl.dispatchable++
			if cl.dispatchable == 1 {
				f.live++
			}
		} else {
			cl.dispatchable--
			if cl.dispatchable == 0 {
				f.live--
			}
		}
	}
	f.touch(r)
}

// noteBreaker refreshes r's cached breaker state and its cluster's tripped
// list.
func (f *Fleet) noteBreaker(r *simReplica) {
	tripped := r.breaker.State() != chaos.BreakerClosed
	if tripped == r.tripped {
		return
	}
	r.tripped = tripped
	cl := r.cl
	if tripped {
		cl.tripped = append(cl.tripped, r)
	} else {
		for i, t := range cl.tripped {
			if t == r {
				last := len(cl.tripped) - 1
				cl.tripped[i] = cl.tripped[last]
				cl.tripped = cl.tripped[:last]
				break
			}
		}
	}
	f.touch(r)
}

// argminTree is a bottom-up segment tree over one cluster's replicas: leaf
// i holds replica i's key, node[n+i] = i, and every inner node holds the
// index of its subtree's minimum key, ties to the lower index. That order
// is a total order on (key, index), so the root node[1] is the argmin for
// any n, power of two or not.
type argminTree struct {
	key  []float64
	node []int32
}

// build fills the inner nodes from the keys in O(n).
func (t *argminTree) build() {
	n := len(t.key)
	for i := 0; i < n; i++ {
		t.node[n+i] = int32(i)
	}
	for p := n - 1; p >= 1; p-- {
		t.node[p] = t.better(t.node[2*p], t.node[2*p+1])
	}
}

func (t *argminTree) better(a, b int32) int32 {
	if ka, kb := t.key[a], t.key[b]; kb < ka || (kb == ka && b < a) {
		return b
	}
	return a
}

// set updates leaf i's key and the O(log n) path above it. The walk stops
// at the first node that keeps a winner other than i: its (index, key)
// pair is unchanged, so nothing above it can change either.
func (t *argminTree) set(i int, k float64) {
	if t.key[i] == k {
		return
	}
	t.key[i] = k
	n := len(t.key)
	for p := (n + i) >> 1; p >= 1; p >>= 1 {
		w := t.better(t.node[2*p], t.node[2*p+1])
		if w == t.node[p] && int(w) != i {
			return
		}
		t.node[p] = w
	}
}

// min returns the argmin leaf and its key.
func (t *argminTree) min() (int, float64) {
	i := t.node[1]
	return int(i), t.key[i]
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
		return r.dispatchable() && r.canRoute(now) && r.queue.n < f.cfg.QueueDepth
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
