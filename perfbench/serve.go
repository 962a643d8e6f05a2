package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
	"autohet/internal/sim"
)

// serveParams sizes the serve workload: a DES fleet under a seeded fault
// storm with the full client-side resilience stack, run on the serial
// engine. Arrivals are an open loop in virtual time.
type serveParams struct {
	Replicas      int     `json:"replicas"`
	Clusters      int     `json:"clusters"`
	FillMS        float64 `json:"fill_ms"`
	IntervalMS    float64 `json:"interval_ms"`
	Policy        string  `json:"policy"`
	ClusterPolicy string  `json:"cluster_policy"`
	QueueDepth    int     `json:"queue_depth"`
	MaxBatch      int     `json:"max_batch"`
	BudgetMS      float64 `json:"budget_ms"`
	// Bursty MMPP arrivals (trace.Bursty) at Load × capacity, capacity
	// being replicas / interval.
	Burst   float64 `json:"burst"`
	DwellMS float64 `json:"dwell_ms"`
	Load    float64 `json:"load"`
	// RequestsPerRun is one DES run's offered requests; the workload runs
	// fresh fleets back to back, run i with its own seed.
	RequestsPerRun int `json:"requests_per_run"`
	// The storm opens at StormAt of a run's arrival span: CrashFrac of the
	// replicas crash and restart CrashMTTR later, SlowFrac run SlowFactor×
	// slow for SlowFor. Times are shares of the arrival span.
	StormAt    float64 `json:"storm_at"`
	CrashFrac  float64 `json:"crash_frac"`
	CrashMTTR  float64 `json:"crash_mttr"`
	SlowFrac   float64 `json:"slow_frac"`
	SlowFactor float64 `json:"slow_factor"`
	SlowFor    float64 `json:"slow_for"`
	Workers    int     `json:"workers"`
	// ChunkArrivals is the op the latency metrics time: host time per this
	// many offered requests.
	ChunkArrivals int `json:"chunk_arrivals"`
}

func defaultServe() serveParams {
	return serveParams{
		Replicas: 10_000, Clusters: 100, FillMS: 50, IntervalMS: 10,
		Policy: string(fleet.JoinShortestQueue), ClusterPolicy: string(fleet.RoundRobin),
		QueueDepth: 64, MaxBatch: 8, BudgetMS: 100,
		Burst: 1.8, DwellMS: 50, Load: 0.7,
		RequestsPerRun: 500_000,
		StormAt:        0.3, CrashFrac: 0.25, CrashMTTR: 0.2, SlowFrac: 0.125, SlowFactor: 10, SlowFor: 0.4,
		Workers: 1, ChunkArrivals: 1000,
	}
}

func (p serveParams) rate() float64 { return p.Load * float64(p.Replicas) * 1e3 / p.IntervalMS }

// newFleet builds run i's fleet with its storm.
func (p serveParams) newFleet(seed int64) (*des.Fleet, error) {
	names := make([]string, p.Replicas)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	span := float64(p.RequestsPerRun) / p.rate() * 1e9
	at := p.StormAt * span
	cfg := des.DefaultConfig()
	cfg.Policy = fleet.Policy(p.Policy)
	cfg.ClusterPolicy = fleet.Policy(p.ClusterPolicy)
	cfg.Clusters = p.Clusters
	cfg.QueueDepth = p.QueueDepth
	cfg.MaxBatch = p.MaxBatch
	cfg.Seed = seed
	cfg.Workers = p.Workers
	cfg.Resilience = chaos.DefaultResilience()
	cfg.Chaos = chaos.Merge(
		chaos.SlowStorm(at, p.SlowFor*span, names, p.SlowFrac, p.SlowFactor, seed),
		chaos.CrashStorm(at, p.CrashMTTR*span, names, p.CrashFrac, seed),
	)
	pipe := &sim.PipelineResult{FillNS: p.FillMS * 1e6, IntervalNS: p.IntervalMS * 1e6}
	specs := make([]fleet.ReplicaSpec, p.Replicas)
	for i := range specs {
		specs[i] = fleet.ReplicaSpec{Name: names[i], Pipeline: pipe}
	}
	return des.NewFleet(cfg, specs...)
}

// stampedGen wraps the arrival generator the fleet is driven by. It stamps
// the host clock every chunk arrivals and, when timed, also sums the time
// spent inside the generator.
type stampedGen struct {
	trace.Generator
	chunk  int
	timed  bool
	n      int
	stamps []time.Time
	inside time.Duration
}

func (g *stampedGen) NextGapNS() float64 {
	if g.n%g.chunk == 0 {
		g.stamps = append(g.stamps, time.Now())
	}
	g.n++
	if !g.timed {
		return g.Generator.NextGapNS()
	}
	t := time.Now()
	gap := g.Generator.NextGapNS()
	g.inside += time.Since(t)
	return gap
}

// serveRun is one finished DES run and what it cost.
type serveRun struct {
	res               *des.Result
	gen               *stampedGen
	start, built, end time.Time
	// liveMB is run 0's live heap with its fleet still held.
	liveMB float64
}

func runOneServe(p serveParams, seed int64, i uint64, timed bool) (*serveRun, error) {
	s := subSeed(seed, i)
	r := &serveRun{start: time.Now()}
	f, err := p.newFleet(s)
	if err != nil {
		return nil, err
	}
	r.built = time.Now()
	r.gen = &stampedGen{Generator: trace.Bursty(p.rate(), p.Burst, p.DwellMS*1e6, s), chunk: p.ChunkArrivals, timed: timed}
	r.res, err = f.RunTrace(r.gen, p.RequestsPerRun, p.BudgetMS*1e6)
	r.end = time.Now()
	if i == 0 {
		r.liveMB = liveHeapMB()
		runtime.KeepAlive(f)
	}
	return r, err
}

// chunks are the host times between successive chunk stamps.
func (r *serveRun) chunks() []time.Duration {
	var out []time.Duration
	for i := 1; i < len(r.gen.stamps); i++ {
		out = append(out, r.gen.stamps[i].Sub(r.gen.stamps[i-1]))
	}
	return out
}

// checkServe checks the run's conservation and latency invariants.
func checkServe(res *des.Result, offered int) error {
	var errs []error
	if res.Offered != offered {
		errs = append(errs, fmt.Errorf("offered %d, want %d", res.Offered, offered))
	}
	if sum := res.Completed + res.Shed + res.Unroutable + res.Expired + res.Failed; sum != res.Offered {
		errs = append(errs, fmt.Errorf("offered %d ≠ completed %d + shed %d + unroutable %d + expired %d + failed %d",
			res.Offered, res.Completed, res.Shed, res.Unroutable, res.Expired, res.Failed))
	}
	if len(res.LatenciesNS) != res.Completed {
		errs = append(errs, fmt.Errorf("%d latencies for %d completed", len(res.LatenciesNS), res.Completed))
	}
	if !slices.IsSorted(res.LatenciesNS) {
		errs = append(errs, errors.New("latencies not sorted ascending"))
	}
	if res.P50NS > res.P99NS {
		errs = append(errs, fmt.Errorf("p50 %v ns > p99 %v ns", res.P50NS, res.P99NS))
	}
	return errors.Join(errs...)
}

// sameServe requires a rerun of a DES run to reproduce its outcome.
func sameServe(a, b *des.Result) error {
	if a.Result != b.Result || a.Events != b.Events {
		return fmt.Errorf("DES run is not deterministic: %v vs %v", a, b)
	}
	return nil
}

func runServe(rc runConfig, p serveParams) (*outcome, error) {
	o := newOutcome(p)
	var setups, chunks []float64
	var busy time.Duration
	var first *serveRun
	requests := 0
	mem := startMemPhase()
	start := time.Now()
	for i := uint64(0); i == 0 || time.Since(start) < rc.phase(); i++ {
		r, err := runOneServe(p, rc.seed, i, false)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r
		}
		o.checks.record(fmt.Sprintf("DES run %d", i), checkServe(r.res, p.RequestsPerRun))
		setups = append(setups, r.built.Sub(r.start).Seconds())
		chunks = append(chunks, durationsMS(r.chunks())...)
		busy += r.end.Sub(r.built)
		requests += p.RequestsPerRun
	}
	mem.end(o.layers, requests)
	rate := float64(requests) / busy.Seconds()
	res := first.res
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput_per_s"] = rate
	o.e2e["latency_ms_p50"] = quantile(chunks, 0.5)
	o.e2e["latency_ms_p90"] = quantile(chunks, 0.9)
	recordMemory(o, first.liveMB)
	o.head("setup_s", o.e2e["setup_s"], "s")
	o.head("serve_requests_per_s", rate, "requests/s")
	o.head("serve_virtual_p50_ms", res.P50NS/1e6, "ms")
	o.head("serve_virtual_p99_ms", res.P99NS/1e6, "ms")
	o.head("serve_goodput_frac", float64(res.Completed)/float64(res.Offered), "completed/offered")

	if rc.trace {
		if err := traceServe(rc, p, first, rate, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceServe reruns DES run 0 under the tracer with the arrival generator
// timed, and reads the engine's outcome counters from its Result.
func traceServe(rc runConfig, p serveParams, untraced *serveRun, rate float64, o *outcome) error {
	tr, err := startTrace(rc.traceDir)
	if err != nil {
		return err
	}
	r, err := runOneServe(p, rc.seed, 0, true)
	if err != nil {
		return err
	}
	root := tr.add("serve", 0, 0, r.start, r.end)
	tr.add("des.NewFleet", root, 0, r.start, r.built)
	run := tr.add("des.RunTrace", root, 0, r.built, r.end)
	for i := 1; i < len(r.gen.stamps); i++ {
		tr.add("arrivals", run, i, r.gen.stamps[i-1], r.gen.stamps[i])
	}
	if err := tr.stop(); err != nil {
		return err
	}
	res := r.res
	o.checks.record("traced DES run 0", checkServe(res, p.RequestsPerRun), sameServe(untraced.res, res))

	l := o.layers
	runS := r.end.Sub(r.built).Seconds()
	l["bench.trace_overhead_frac"] = 1 - ratio(float64(p.RequestsPerRun)/runS, rate)
	l["des.build_s"] = r.built.Sub(r.start).Seconds()
	l["des.run_s"] = runS
	l["des.events"] = float64(res.Events)
	l["des.events_per_request"] = float64(res.Events) / float64(res.Offered)
	l["des.ns_per_event"] = 1e9 * (runS - r.gen.inside.Seconds()) / float64(res.Events)
	l["des.completed"] = float64(res.Completed)
	l["des.shed"] = float64(res.Shed)
	l["des.expired"] = float64(res.Expired)
	l["des.failed"] = float64(res.Failed)
	l["des.unroutable"] = float64(res.Unroutable)
	l["des.brownout_shed"] = float64(res.BrownoutShed)
	l["des.batches"] = float64(res.Batches)
	l["des.mean_batch"] = res.MeanBatch
	l["trace.next_s"] = r.gen.inside.Seconds()
	l["trace.arrivals"] = float64(r.gen.n)
	l["chaos.events"] = float64(res.ChaosEvents)
	l["chaos.retried"] = float64(res.Retried)
	l["chaos.hedged"] = float64(res.Hedged)
	l["chaos.hedge_wasted"] = float64(res.HedgeWasted)
	l["chaos.hedge_useful_ratio"] = ratio(float64(res.Hedged-res.HedgeWasted), float64(res.Hedged))
	l["serve.virtual_p50_ms"] = res.P50NS / 1e6
	l["serve.virtual_p99_ms"] = res.P99NS / 1e6
	l["serve.goodput_frac"] = float64(res.Completed) / float64(res.Offered)
	return nil
}
