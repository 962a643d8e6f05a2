package des

import "autohet/internal/chaos"

// Chaos injection and client-side resilience on the event heap. Fault
// events (Config.Chaos) fire at their virtual timestamps: a crash
// fail-stops a replica at its next batch boundary (queued copies fail and
// may retry; the in-flight batch, already committed to the pipeline,
// completes), a restart returns it with its pipeline free no earlier than
// now, fail-slow multiplies the service recurrence, a degraded link adds
// per-batch transfer cost, and a fault storm rewrites the static health
// score the way a fresh ReplicaSpec.Faults would.
//
// Resilience (Config.Resilience) wraps requests in a shared reqState so a
// request can have several copies in flight: the primary, a hedge launched
// after a latency-quantile delay, and retries re-dispatched with jittered
// exponential backoff after a copy is lost. The first copy to complete
// wins (st.done); every other copy is cancelled where it sits — skipped at
// queue pop without consuming a pipeline slot, or counted wasted when its
// completion event fires late. Because a winner must be *known* before a
// loser can be skipped, resilient completions resolve at their virtual
// completion time via deferred events rather than instantly at batch
// pricing — the legacy instant-pricing path (st == nil) is untouched, which
// is what keeps the crosschecks against the goroutine fleet bit-identical.
//
// Everything here is single-goroutine on the DES event loop; determinism
// (same config + seeds + schedule → byte-identical event log) is asserted
// in tests and CI.

// reqState is the shared fate of one resilient request across its copies.
type reqState struct {
	id      int
	arrival float64
	budget  float64

	attempts     int  // dispatches so far (primary = 1, hedge and retries add)
	live         int  // copies sitting in admission queues
	pending      int  // completion events scheduled but not yet fired
	retryPending bool // a backoff timer will re-dispatch
	done         bool // resolved: a copy completed
	failed       bool // resolved: every avenue exhausted
	expired      bool // some copy missed the budget (final loss counts as Expired)

	hedge   Handle // pending hedge launch (zero once fired or cancelled)
	primary *simReplica
}

// newState wraps an arrival when any resilience policy is on.
func (f *Fleet) newState(id int, arrival, budget float64) *reqState {
	if !f.res.Enabled() {
		return nil
	}
	return &reqState{id: id, arrival: arrival, budget: budget}
}

// applyChaos executes one schedule event at the current virtual time on
// its target r, resolved when RunTrace armed the schedule. Events naming
// unknown replicas (r == nil) log and fall through — a schedule may name
// replicas a particular fleet does not have.
func (f *Fleet) applyChaos(ev chaos.Event, r *simReplica) {
	now := f.eng.Now()
	f.chaosEvents.Add(1)
	if f.logging {
		f.logf("K t=%.3f kind=%s target=%s v=%g\n", now, ev.Kind, ev.Target, ev.Value)
	}
	if r == nil {
		return
	}
	was := r.dispatchable()
	switch ev.Kind {
	case chaos.Crash:
		if r.crashed {
			return
		}
		r.crashed = true
		f.noteDispatch(r, was)
		if r.collecting {
			f.eng.Cancel(r.collect)
			r.collecting = false
			r.collect = Handle{}
		}
		for r.queue.n > 0 {
			rq := r.queue.pop()
			f.queued--
			r.cl.queued.Add(-1)
			f.failCopy(rq, r, "crash")
		}
	case chaos.Restart:
		if !r.crashed {
			return
		}
		r.crashed = false
		if r.nextFree < now {
			r.nextFree = now
		}
		f.noteDispatch(r, was)
	case chaos.Slow:
		if ev.Value <= 1 {
			r.slow = 1
		} else {
			r.slow = ev.Value
		}
	case chaos.Link:
		if ev.Value <= 0 {
			r.link = 0
		} else {
			r.link = ev.Value
		}
	case chaos.Faults:
		// The DES health model is static (no online repair loop), so a
		// fault storm lands as the health score a fresh build would compute.
		if ev.Value <= 0 {
			r.health = 1
		} else {
			r.health = 1 - ev.Value/f.cfg.DegradeThreshold
			if r.health < 0 {
				r.health = 0
			}
		}
		f.noteDispatch(r, was)
		f.recountSignal()
	}
}

// route commits the final placement to r's breaker (probe claiming). OnRoute
// on a closed breaker does nothing, so only tripped ones are called.
func (f *Fleet) route(r *simReplica) {
	if r.tripped {
		r.breaker.OnRoute(f.eng.Now())
	}
}

// record feeds one request outcome to r's breaker (nil = off). Only a
// failure can open a closed breaker and only a success can close a tripped
// one, so the cached state is refreshed just for those two cases.
func (f *Fleet) record(r *simReplica, ok bool) {
	if r.breaker == nil {
		return
	}
	r.breaker.Record(f.eng.Now(), ok)
	if ok == r.tripped {
		f.noteBreaker(r)
	}
}

// anyRoutable scans the whole fleet for a breaker-admitting replica with
// queue space — the last-resort fallback when breakers filtered every
// candidate the policy offered.
func (f *Fleet) anyRoutable() *simReplica {
	now := f.eng.Now()
	for _, r := range f.replicas {
		if r.dispatchable() && r.canRoute(now) && r.queue.n < f.cfg.QueueDepth {
			return r
		}
	}
	return nil
}

// failCopy handles a copy lost before service (crash drain, dead-end
// routes). Legacy requests fail outright; resilient ones consult retry.
func (f *Fleet) failCopy(rq simReq, r *simReplica, reason string) {
	now := f.eng.Now()
	f.record(r, false)
	st := rq.st
	if st == nil {
		f.failed.Add(1)
		f.window(now).Failed++
		if f.logging {
			f.logf("X t=%.3f id=%d r=%s reason=%s\n", now, rq.id, r.name, reason)
		}
		return
	}
	if st.done || st.failed {
		return // cancelled copy swept out with the queue
	}
	st.live--
	if f.logging {
		f.logf("E t=%.3f id=%d r=%s reason=%s\n", now, rq.id, r.name, reason)
	}
	f.tryRetry(st)
}

// tryRetry schedules a backoff re-dispatch when the policy, attempt count,
// and token budget allow; otherwise it settles the request if nothing else
// is in flight.
func (f *Fleet) tryRetry(st *reqState) {
	if rp := f.res.Retry; rp != nil && st.attempts < rp.MaxAttempts && f.retryBudget.Spend() {
		st.retryPending = true
		st.attempts++
		delay := rp.BackoffNS(st.attempts-1, f.retryRng)
		f.retried.Add(1)
		if f.logging {
			f.logf("R t=%.3f id=%d attempt=%d wait=%.3f\n", f.eng.Now(), st.id, st.attempts, delay)
		}
		f.eng.ScheduleEvent(delay, evRetry, 0, 0, st)
		return
	}
	f.settle(st)
}

// redispatch is the backoff timer firing: route a fresh copy, or settle
// when no route exists.
func (f *Fleet) redispatch(st *reqState) {
	st.retryPending = false
	if st.done || st.failed {
		return
	}
	r := f.pickReplica()
	if r != nil && r.queue.n >= f.cfg.QueueDepth {
		r = f.fallback(r)
	}
	if r == nil && f.breakersOn {
		r = f.anyRoutable()
	}
	if r == nil {
		f.settle(st)
		return
	}
	st.live++
	f.route(r)
	f.enqueue(r, simReq{id: st.id, arrival: st.arrival, budget: st.budget, enqueued: f.eng.Now(), st: st})
}

// settle finalizes a resilient request once no copy, completion event, or
// retry timer remains. A budget miss anywhere makes the loss an expiry;
// otherwise it is a failure (crash losses with retries exhausted).
func (f *Fleet) settle(st *reqState) {
	if st.done || st.failed || st.retryPending || st.live+st.pending > 0 {
		return
	}
	st.failed = true
	f.eng.Cancel(st.hedge)
	st.hedge = Handle{}
	now := f.eng.Now()
	if st.expired {
		f.expired.Add(1)
		f.window(now).Expired++
		if f.logging {
			f.logf("X t=%.3f id=%d reason=budget\n", now, st.id)
		}
	} else {
		f.failed.Add(1)
		f.window(now).Failed++
		if f.logging {
			f.logf("X t=%.3f id=%d reason=failed\n", now, st.id)
		}
	}
}

// armHedge schedules the backup launch for a fresh primary dispatch: after
// the observed latency quantile (floored until enough samples), a still-
// unresolved request gets a second copy on another replica.
func (f *Fleet) armHedge(st *reqState) {
	hp := f.res.Hedge
	if hp == nil || st == nil {
		return
	}
	d := hp.DelayNS(f.hedgeHist.Count(), f.hedgeHist.Quantile(hp.Quantile))
	st.hedge = f.eng.ScheduleEvent(d, evHedge, 0, 0, st)
}

// fireHedge launches the backup copy (first-wins with the primary).
func (f *Fleet) fireHedge(st *reqState) {
	st.hedge = Handle{}
	if st.done || st.failed {
		return
	}
	r := f.pickReplica()
	if r == st.primary && r != nil {
		// A hedge on the replica already serving the primary buys nothing;
		// prefer any other replica with queue space.
		if alt := f.fallback(r); alt != nil {
			r = alt
		}
	}
	if r != nil && r.queue.n >= f.cfg.QueueDepth {
		r = f.fallback(r)
	}
	if r == nil && f.breakersOn {
		r = f.anyRoutable()
	}
	if r == nil {
		return // primary still live; nothing to hedge onto
	}
	st.attempts++
	st.live++
	f.hedged.Add(1)
	f.route(r)
	now := f.eng.Now()
	if f.logging {
		f.logf("G t=%.3f id=%d r=%s\n", now, st.id, r.name)
	}
	f.enqueue(r, simReq{id: st.id, arrival: st.arrival, budget: st.budget, enqueued: now, st: st})
}

// resolveCopy fires at a resilient copy's virtual completion time: the
// first copy wins the request, later ones count as wasted hedges.
func (f *Fleet) resolveCopy(st *reqState, r *simReplica, completion float64) {
	st.pending--
	now := f.eng.Now()
	if st.done || st.failed {
		f.hedgeWasted.Add(1)
		if f.logging {
			f.logf("W t=%.3f id=%d r=%s\n", now, st.id, r.name)
		}
		return
	}
	st.done = true
	f.eng.Cancel(st.hedge)
	st.hedge = Handle{}
	latency := completion - st.arrival
	f.latencies = append(f.latencies, latency)
	f.completed.Add(1)
	f.hedgeHist.Observe(latency)
	if f.retryBudget != nil {
		f.retryBudget.Earn()
	}
	r.served++
	r.cl.served++
	f.window(completion).Completed++
	if completion > f.makespan {
		f.makespan = completion
	}
	if f.logging {
		f.logf("S t=%.3f id=%d r=%s c=%.3f\n", now, st.id, r.name, completion)
	}
}

// window returns the stats bucket for virtual time t, or a discard sink
// when windowing is off.
func (f *Fleet) window(t float64) *WindowStats {
	w := f.cfg.StatsWindowNS
	if w <= 0 {
		return &f.winDiscard
	}
	idx := int(t / w)
	if idx < 0 {
		idx = 0
	}
	for len(f.windows) <= idx {
		f.windows = append(f.windows, WindowStats{StartNS: float64(len(f.windows)) * w})
	}
	return &f.windows[idx]
}
