package des

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
	"autohet/internal/obs"
	"autohet/internal/serving"
)

// This file is the DES-backed fleet mode: the same replica service-time
// model, dispatch policies, bounded admission queues, shedding, dynamic
// batching, and latency budgets as the goroutine runtime in internal/fleet,
// but advanced by popping events off the virtual-time heap instead of
// pacing wall-clock sleeps. A 10k-replica fleet under a million-request
// trace completes in seconds of wall time, and on small configurations the
// per-request virtual latencies cross-check against the goroutine fleet and
// serving.Serve's exact pipelined recurrence (see crosscheck_test.go).
//
// Differences from the goroutine runtime, by design:
//
//   - Queue depths are virtual: a request occupies its admission queue from
//     its arrival until the batch containing it enters the pipeline, so the
//     queue-aware policies see the virtual backlog rather than a wall-clock
//     race between submitter and replica loops. This is the signal a paced
//     (TimeScale ≈ 1) goroutine fleet approximates.
//   - Replica health is static, derived from ReplicaSpec.Faults against
//     DegradeThreshold at build time; the online detect/repair loop (and
//     with it retry routing and RepairSpec) stays in the goroutine runtime.
//   - Routing is hierarchical: replicas are grouped into clusters, the
//     cluster policy picks a cluster, the replica policy picks within it.
//     Round robin and power-of-two pick in O(1) while every replica is
//     routable; jsq and least-outstanding read a per-cluster argmin tree,
//     O(log #replicas/cluster) per dispatch (see dispatch.go).
type Config struct {
	// Policy dispatches within a cluster (default RoundRobin); ClusterPolicy
	// picks the cluster (default: same as Policy).
	Policy        fleet.Policy
	ClusterPolicy fleet.Policy
	// Clusters splits the replicas into this many contiguous clusters
	// (default 1 = flat routing).
	Clusters int
	// MaxBatch, BatchTimeoutNS, QueueDepth, and DegradeThreshold carry the
	// goroutine runtime's semantics (fleet.Config).
	MaxBatch         int
	BatchTimeoutNS   float64
	QueueDepth       int
	DegradeThreshold float64
	// Shards splits the replicas into that many contiguous pipeline-parallel
	// stages (default 1 = every replica hosts the whole model), mirroring
	// fleet.Config.Shards: arrivals dispatch into stage 0, each stage's
	// completion schedules a stage-hop event that re-queues the request at
	// the next stage after the priced transfer, and only the final stage
	// records the request's latency (measured from its original arrival, so
	// budgets span the whole chain). Sharding requires flat routing
	// (Clusters == 1) and no resilience stack.
	Shards int
	// StageTransferNS prices the Shards−1 inter-stage activation handoffs
	// (fleet.Config.StageTransferNS semantics: nil = free, else entry s is
	// added between completion on stage s and arrival at stage s+1).
	StageTransferNS []float64
	// Seed drives the dispatch sampler (PowerOfTwo), default 1.
	Seed int64
	// Scaler, when set, is consulted every ControlPeriodNS of virtual time
	// and may grow or shrink the active replica set (see scale.go).
	Scaler Scaler
	// ControlPeriodNS is the autoscaling control-loop period (default 10 ms
	// virtual).
	ControlPeriodNS float64
	// Admit, when set, is consulted per arrival before dispatch; a rejected
	// request is shed (admission control).
	Admit Admitter
	// Chaos, when set, is a fault-injection schedule replayed on the event
	// heap: each event fires at its virtual timestamp (crash/restart,
	// fail-slow, degraded link, fault storms — see internal/chaos). The
	// schedule participates in the determinism contract: same config, same
	// seeds, same schedule → byte-identical event log.
	Chaos *chaos.Schedule
	// Resilience enables client-side failure handling (retry with backoff,
	// hedged requests, per-replica circuit breakers, brownout). The zero
	// value disables everything and preserves the legacy engine behavior
	// bit for bit — the crosscheck anchor.
	Resilience chaos.Resilience
	// StatsWindowNS, when positive, buckets arrivals/completions/losses
	// into fixed windows of virtual time (Result.Windows) — the recovery
	// currency of the chaos experiment.
	StatsWindowNS float64
	// Log, when set, receives one line per simulation event. Identical
	// configs and seeds produce byte-identical logs — the determinism
	// anchor asserted in tests. Logging a million-request run is large;
	// leave nil outside tests and small experiments.
	Log io.Writer
	// Workers must be 0 or 1, both meaning one: the engine runs a single
	// serial event loop. The field stays so callers that set 1 still build;
	// any other value is an error.
	Workers int
}

// DefaultConfig mirrors fleet.DefaultConfig for the fields the DES mode
// shares.
func DefaultConfig() Config {
	return Config{
		Policy:           fleet.RoundRobin,
		Clusters:         1,
		MaxBatch:         1,
		BatchTimeoutNS:   100_000,
		QueueDepth:       256,
		DegradeThreshold: 0.01,
		Seed:             1,
		ControlPeriodNS:  10e6,
	}
}

func (c *Config) normalize() error {
	if c.Policy == "" {
		c.Policy = fleet.RoundRobin
	}
	if _, err := fleet.ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if c.ClusterPolicy == "" {
		c.ClusterPolicy = c.Policy
	}
	if _, err := fleet.ParsePolicy(string(c.ClusterPolicy)); err != nil {
		return err
	}
	if c.Clusters == 0 {
		c.Clusters = 1
	}
	if c.Clusters < 1 {
		return fmt.Errorf("des: cluster count %d", c.Clusters)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("des: max batch %d", c.MaxBatch)
	}
	if c.BatchTimeoutNS == 0 {
		c.BatchTimeoutNS = 100_000
	}
	if c.BatchTimeoutNS < 0 {
		return fmt.Errorf("des: batch timeout %v ns", c.BatchTimeoutNS)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("des: queue depth %d", c.QueueDepth)
	}
	if c.DegradeThreshold == 0 {
		c.DegradeThreshold = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ControlPeriodNS == 0 {
		c.ControlPeriodNS = 10e6
	}
	if c.ControlPeriodNS < 0 {
		return fmt.Errorf("des: control period %v ns", c.ControlPeriodNS)
	}
	if c.StatsWindowNS < 0 {
		return fmt.Errorf("des: stats window %v ns", c.StatsWindowNS)
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers != 1 {
		return fmt.Errorf("des: %d workers: parallel simulation was removed, the engine is serial (use 0 or 1)", c.Workers)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards >= 1<<16 {
		return fmt.Errorf("des: %d shard stages", c.Shards)
	}
	if c.Shards > 1 {
		if c.Clusters != 1 {
			return fmt.Errorf("des: sharding requires flat routing, have %d clusters", c.Clusters)
		}
		if c.Resilience.Enabled() {
			return fmt.Errorf("des: sharding and the resilience stack are mutually exclusive")
		}
	}
	if c.StageTransferNS != nil && len(c.StageTransferNS) != c.Shards-1 {
		return fmt.Errorf("des: %d stage transfers for %d shard stages", len(c.StageTransferNS), c.Shards)
	}
	for i, t := range c.StageTransferNS {
		if t < 0 || math.IsNaN(t) {
			return fmt.Errorf("des: stage %d transfer %v ns", i, t)
		}
	}
	if p := c.Resilience.Retry; p != nil {
		d := p.WithDefaults()
		c.Resilience.Retry = &d
	}
	if p := c.Resilience.Hedge; p != nil {
		d := p.WithDefaults()
		c.Resilience.Hedge = &d
	}
	if p := c.Resilience.Brownout; p != nil {
		d := p.WithDefaults()
		c.Resilience.Brownout = &d
	}
	return nil
}

// Typed event kinds for the fleet's hot events: the steady-state loop
// (arrival → dispatch → batch → free) schedules zero closures and zero
// per-event allocations. Payload conventions are documented per kind.
const (
	evArrival  uint16 = iota + 1 // arrival chain; i = request id
	evFree                       // pipeline free; i = replica index
	evCollect                    // batch collect timeout; i = replica index
	evControl                    // autoscaler control tick
	evChaos                      // chaos schedule event; i = index into cfg.Chaos.Events, p = target *simReplica (nil = unknown)
	evResolve                    // resilient copy completion; i = replica index, x = completion, p = *reqState
	evRetry                      // retry backoff expiry; p = *reqState
	evHedge                      // hedge launch; p = *reqState
	evStageHop                   // sharded stage handoff; i = id<<16|stage, x = original arrival
)

// handle dispatches typed events from the engine to the fleet's handlers.
func (f *Fleet) handle(kind uint16, i int64, x float64, p any) {
	switch kind {
	case evArrival:
		f.fireArrival(int(i))
	case evFree:
		f.onFree(f.replicas[i])
	case evCollect:
		f.onCollectTimeout(f.replicas[i])
	case evControl:
		f.controlTick()
	case evChaos:
		r, _ := p.(*simReplica)
		f.applyChaos(f.cfg.Chaos.Events[i], r)
	case evResolve:
		f.resolveCopy(p.(*reqState), f.replicas[i], x)
	case evRetry:
		f.redispatch(p.(*reqState))
	case evHedge:
		f.fireHedge(p.(*reqState))
	case evStageHop:
		f.onStageHop(int(i>>16), int(i&0xffff), x)
	}
}

// simReq is one queued request copy. enqueued is the virtual time it joined
// its current queue (== arrival for primary dispatches, so the legacy entry
// recurrence is unchanged; retry and hedge copies carry their re-dispatch
// time). st is nil on the legacy path; resilient requests share one reqState
// across all their copies (see chaos.go).
type simReq struct {
	id       int
	arrival  float64
	budget   float64
	enqueued float64
	st       *reqState
}

// reqRing is a growable FIFO ring buffer of requests — per-replica
// admission queues allocate lazily and reuse storage across batches.
type reqRing struct {
	buf  []simReq
	head int
	n    int
}

func (r *reqRing) push(q simReq) {
	if r.n == len(r.buf) {
		grown := make([]simReq, 2*len(r.buf)+8)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *reqRing) pop() simReq {
	q := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

func (r *reqRing) peek() simReq { return r.buf[r.head] }

// simReplica is one accelerator's virtual-time service state.
type simReplica struct {
	id          int
	name        string
	stage       int // pipeline stage served (0 without sharding)
	fill        float64
	interval    float64
	occBase     float64 // extra engine occupancy per batch (fleet.BatchService.BaseNS; 0 = pipelined)
	capacityRPS float64
	health      float64
	area        float64
	cl          *simCluster
	idx         int // position in cl.replicas (its argmin-tree leaf)

	active     bool
	queue      reqRing
	nextFree   float64 // virtual time the pipeline accepts its next batch
	busy       bool    // a batch occupies the pipeline until nextFree
	inFlight   int     // kept members of the executing batch
	collecting bool
	collect    Handle

	// Chaos state: crashed fail-stops the replica, slow multiplies fill and
	// interval (1 = healthy), link adds degraded-NoC transfer cost per batch
	// (0 = healthy), breaker is the per-replica circuit breaker (nil = off).
	// tripped caches "breaker not closed", refreshed after every
	// Breaker.Record — the only call that moves a breaker into or out of
	// the closed state.
	crashed bool
	slow    float64
	link    float64
	breaker *chaos.Breaker
	tripped bool

	served   int64
	expired  int64
	batches  int64
	batchSum int64
	busyNS   float64 // cumulative pipeline occupancy (bubble-fraction currency)
}

func (r *simReplica) healthy() bool { return r.health > 0 }

// dispatchable reports whether new traffic may route here.
func (r *simReplica) dispatchable() bool { return r.active && r.healthy() && !r.crashed }

// canRoute consults the circuit breaker without mutating it. A closed
// breaker (or none) always admits, so only tripped breakers take the lock.
func (r *simReplica) canRoute(nowNS float64) bool {
	return !r.tripped || r.breaker.CanRoute(nowNS)
}

// queueScore and loadScore carry the goroutine runtime's health weighting
// (fleet.replica): a half-health replica looks twice as loaded.
func (r *simReplica) queueScore() float64 { return float64(r.queue.n+1) / r.health }
func (r *simReplica) loadScore() float64 {
	return float64(r.queue.n+r.inFlight+1) / r.health
}

// simCluster groups replicas for two-level routing.
type simCluster struct {
	id       int
	name     string
	replicas []*simReplica

	// queued is atomic only so metric exposition can read it while a run
	// is in flight; the simulation itself is single-goroutine.
	queued        atomic.Int64
	peakQueued    int64
	dispatchable  int // replicas accepting traffic (active && healthy && !crashed)
	inFlight      int // batch members occupying the cluster's pipelines
	rrNext        uint64
	served        int64
	admissionShed int64 // admission-hook rejections attributed to this cluster

	tripped []*simReplica // replicas whose breaker is not closed, any order
	tree    argminTree    // jsq/lo pick keys (empty under rr and p2c)
}

// queueScore is the cluster-level JSQ signal: waiting requests per
// dispatchable replica.
func (c *simCluster) queueScore() float64 {
	return (float64(c.queued.Load()) + 1) / float64(c.dispatchable)
}

// loadScore adds in-flight work (cluster-level least-outstanding signal).
func (c *simCluster) loadScore() float64 {
	return (float64(c.queued.Load())+float64(c.inFlight))/float64(c.dispatchable) + 1
}

// Fleet is the DES-backed fleet simulator. Build with NewFleet, run one
// workload with RunTrace (or Run), then read the Result; a Fleet is
// single-use and single-goroutine.
type Fleet struct {
	cfg      Config
	eng      *Engine
	clusters []*simCluster
	replicas []*simReplica
	rng      *rand.Rand
	log      io.Writer
	// logging gates every logf call site: the variadic args would otherwise
	// box to the heap per event even with logging off, which alone costs
	// ~6 allocs/event on the steady-state path.
	logging bool

	clusterRR uint64

	// Pipeline-stage bounds over replicas (Config.Shards > 1): stage s is
	// replicas[stageLo[s]:stageLo[s+1]], the same contiguous near-equal split
	// formula as the cluster bounds and the goroutine fleet's stages. stageRR
	// holds one round-robin cursor per stage.
	stageLo []int
	stageRR []uint64

	// O(1) fleet-wide dispatch/signal state, maintained incrementally.
	queued      int
	inFlight    int
	active      int
	capacityRPS float64
	arrivalRate float64
	live        int // clusters with at least one dispatchable replica

	// treePick routes jsq/lo replica picks through each cluster's argmin
	// tree (unsharded fleets only); byLoad keys it by loadScore, else by
	// queueScore.
	treePick bool
	byLoad   bool

	submitted  atomic.Int64
	completed  atomic.Int64
	shed       atomic.Int64
	unroutable atomic.Int64
	expired    atomic.Int64
	failed     atomic.Int64

	latencies    []float64
	makespan     float64
	lastArrival  float64
	arrivalsTick int64 // arrivals since the last control tick
	traceDone    bool

	// Arrival-chain state for the typed evArrival event (the closure-free
	// replacement for the old self-scheduling arrival closure).
	traceGen      trace.Generator
	budgetNS      float64
	totalRequests int
	nextArrivalAt float64

	speedupGauge  *gaugeHandle
	ran           bool
	clusterBuf    []*simCluster // reusable scratch for degraded-path picks
	replicaBuf    []*simReplica
	scaleActions  int64
	admissionShed int64

	// Chaos + resilience state (see chaos.go). res is the normalized copy
	// of Config.Resilience; breakersOn enables the last-resort anyRoutable
	// scan when breakers filtered every candidate.
	res         chaos.Resilience
	breakersOn  bool
	retryRng    *rand.Rand
	retryBudget *chaos.RetryBudget
	hedgeHist   obs.Histogram
	// Atomic like the outcome counters: CounterFunc exposition may read
	// them while a run is in flight.
	retried      atomic.Int64
	hedged       atomic.Int64
	hedgeWasted  atomic.Int64
	brownoutShed atomic.Int64
	chaosEvents  atomic.Int64
	windows      []WindowStats
	winDiscard   WindowStats // sink when StatsWindowNS is off
}

// NewFleet builds the simulator from the same ReplicaSpec values the
// goroutine runtime takes. ReplicaSpec.Faults sets a static health score
// (1 − cellRate/DegradeThreshold, clamped); ReplicaSpec.Repair is ignored —
// online self-repair lives in the goroutine runtime.
func NewFleet(cfg Config, specs ...fleet.ReplicaSpec) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("des: no replicas")
	}
	if cfg.Clusters > len(specs) {
		return nil, fmt.Errorf("des: %d clusters over %d replicas", cfg.Clusters, len(specs))
	}
	f := &Fleet{
		cfg: cfg,
		eng: New(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		log: cfg.Log,
	}
	f.logging = cfg.Log != nil
	f.eng.SetHandler(f.handle)
	names := map[string]bool{}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("r%d", i)
		}
		if names[name] {
			return nil, fmt.Errorf("des: duplicate replica name %q", name)
		}
		names[name] = true
		if spec.Service == nil && (spec.Pipeline == nil || spec.Pipeline.IntervalNS <= 0 || spec.Pipeline.FillNS <= 0) {
			return nil, fmt.Errorf("des: replica %q has a degenerate pipeline", name)
		}
		if err := spec.Service.Validate(); err != nil {
			return nil, fmt.Errorf("des: replica %q: %w", name, err)
		}
		if err := spec.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("des: replica %q: %w", name, err)
		}
		health := 1.0
		if spec.Faults != nil {
			health = 1 - spec.Faults.CellFaultRate()/cfg.DegradeThreshold
			if health < 0 {
				health = 0
			}
		}
		r := &simReplica{
			id:     i,
			name:   name,
			health: health,
			active: true,
			slow:   1,
		}
		// The same spec→timing resolution as fleet.newReplica: a batch
		// service holds the engine for BaseNS + kept·PerInputNS, a
		// pipeline overlaps drain with the next batch (occBase 0).
		if s := spec.Service; s != nil {
			r.fill = s.BaseNS + s.PerInputNS
			r.interval = s.PerInputNS
			r.occBase = s.BaseNS
		} else {
			r.fill = spec.Pipeline.FillNS
			r.interval = spec.Pipeline.IntervalNS
		}
		r.capacityRPS = 1e9 / r.interval
		if cfg.Resilience.Breaker != nil {
			r.breaker = chaos.NewBreaker(*cfg.Resilience.Breaker)
		}
		if spec.Plan != nil {
			r.area = spec.Plan.Area()
		}
		f.replicas = append(f.replicas, r)
	}
	f.treePick = cfg.Shards == 1 && (cfg.Policy == fleet.JoinShortestQueue || cfg.Policy == fleet.LeastOutstanding)
	f.byLoad = cfg.Policy == fleet.LeastOutstanding
	// Contiguous, near-equal cluster split. The argmin trees share two
	// fleet-wide backing arrays: n keys and 2n nodes.
	n := len(f.replicas)
	var keys []float64
	var nodes []int32
	if f.treePick {
		keys, nodes = make([]float64, n), make([]int32, 2*n)
	}
	for ci := 0; ci < cfg.Clusters; ci++ {
		lo := ci * n / cfg.Clusters
		hi := (ci + 1) * n / cfg.Clusters
		cl := &simCluster{id: ci, name: fmt.Sprintf("c%d", ci), replicas: f.replicas[lo:hi]}
		for i, r := range cl.replicas {
			r.cl, r.idx = cl, i
			if r.dispatchable() {
				cl.dispatchable++
			}
		}
		if cl.dispatchable > 0 {
			f.live++
		}
		if f.treePick {
			cl.tree = argminTree{key: keys[lo:hi], node: nodes[2*lo : 2*hi]}
			for i, r := range cl.replicas {
				cl.tree.key[i] = f.pickKey(r)
			}
			cl.tree.build()
		}
		f.clusters = append(f.clusters, cl)
	}
	if cfg.Shards > len(f.replicas) {
		return nil, fmt.Errorf("des: %d shard stages need at least as many replicas, have %d", cfg.Shards, len(f.replicas))
	}
	f.stageLo = make([]int, cfg.Shards+1)
	f.stageRR = make([]uint64, cfg.Shards)
	for s := 0; s <= cfg.Shards; s++ {
		f.stageLo[s] = s * n / cfg.Shards
	}
	for s := 0; s < cfg.Shards; s++ {
		for _, r := range f.replicas[f.stageLo[s]:f.stageLo[s+1]] {
			r.stage = s
		}
	}
	f.res = cfg.Resilience
	f.breakersOn = cfg.Resilience.Breaker != nil
	if cfg.Resilience.Retry != nil {
		f.retryRng = rand.New(rand.NewSource(SubSeed(cfg.Seed, "chaos/retry")))
		f.retryBudget = chaos.NewRetryBudget(*cfg.Resilience.Retry)
	}
	f.recountSignal()
	f.registerMetrics()
	return f, nil
}

// recountSignal rebuilds the O(1) signal aggregates from scratch: at build
// time, after scale actions, and after fault storms — the only events that
// change an active replica's health. Crash and restart leave both sums
// alone, so recounting only here keeps capacityRPS's summation order, and
// with it every bit of the Signal, unchanged.
func (f *Fleet) recountSignal() {
	f.active, f.capacityRPS = 0, 0
	for _, r := range f.replicas {
		if r.active {
			f.active++
			if r.healthy() {
				f.capacityRPS += r.capacityRPS
			}
		}
	}
}

// Engine exposes the underlying event engine (virtual clock, event count).
func (f *Fleet) Engine() *Engine { return f.eng }

// Run offers a fleet.Workload (open-loop Poisson, serving.Serve's arrival
// construction: same seed, same trace) and returns the result — the DES
// counterpart of fleet.Run.
func (f *Fleet) Run(w fleet.Workload) (*Result, error) {
	if w.ArrivalRate <= 0 {
		return nil, fmt.Errorf("des: arrival rate %v", w.ArrivalRate)
	}
	seed := w.Seed
	if seed == 0 {
		seed = serving.DefaultSeed
	}
	return f.RunTrace(trace.Poisson(w.ArrivalRate, seed), w.Requests, w.BudgetNS)
}

// RunTrace offers requests arrivals drawn from gen and runs the simulation
// to completion. One call per Fleet. A run whose outcome counts do not
// conserve requests returns an error (see Result.conservation).
func (f *Fleet) RunTrace(gen trace.Generator, requests int, budgetNS float64) (*Result, error) {
	if requests <= 0 {
		return nil, fmt.Errorf("des: request count %d", requests)
	}
	if f.ran {
		return nil, fmt.Errorf("des: fleet already ran; build a new one per workload")
	}
	f.ran = true
	wallStart := time.Now()
	f.latencies = make([]float64, 0, requests)
	if f.cfg.Scaler != nil {
		f.eng.ScheduleEvent(f.cfg.ControlPeriodNS, evControl, 0, 0, nil)
	}
	if f.cfg.Chaos != nil {
		// Resolve every target name once. NewFleet rejects duplicate names,
		// so each name maps to its first and only replica; unknown targets
		// carry a nil payload.
		byName := make(map[string]*simReplica, len(f.replicas))
		for _, r := range f.replicas {
			byName[r.name] = r
		}
		for i, ev := range f.cfg.Chaos.Events {
			var target any
			if r := byName[ev.Target]; r != nil {
				target = r
			}
			f.eng.AtEvent(ev.AtNS, evChaos, int64(i), 0, target)
		}
	}
	f.traceGen, f.totalRequests, f.budgetNS = gen, requests, budgetNS
	f.nextArrivalAt = gen.NextGapNS()
	f.lastArrival = f.nextArrivalAt
	f.eng.AtEvent(f.nextArrivalAt, evArrival, 0, 0, nil)
	events := f.eng.Run()

	res := f.compileResult(requests, events, time.Since(wallStart))
	if err := res.conservation(); err != nil {
		return nil, err
	}
	return res, nil
}

// fireArrival handles one evArrival event: admit request id at the current
// virtual time, then schedule the next arrival — the allocation-free
// replacement for the old self-scheduling arrival closure, with the exact
// same float accumulation (nextArrivalAt += gap) so schedules are
// bit-identical.
func (f *Fleet) fireArrival(id int) {
	f.arrive(id, f.nextArrivalAt, f.budgetNS)
	id++
	if id < f.totalRequests {
		f.nextArrivalAt += f.traceGen.NextGapNS()
		f.lastArrival = f.nextArrivalAt
		f.eng.AtEvent(f.nextArrivalAt, evArrival, int64(id), 0, nil)
	} else {
		f.traceDone = true
	}
}

// Result is a DES run summary: the goroutine runtime's fleet.Result fields
// plus engine-level speed metrics and per-cluster stats.
type Result struct {
	fleet.Result
	// LatenciesNS holds every completed request's virtual latency, sorted
	// ascending — the cross-check currency against the goroutine fleet.
	LatenciesNS []float64
	// Events is the number of simulation events fired.
	Events int64
	// VirtualNS is the simulated span (last completion or arrival).
	VirtualNS float64
	// WallSeconds is the wall-clock cost of the run; SpeedupVsWall is
	// virtual seconds simulated per wall second — the DES engine's reason
	// to exist (a TimeScale-1 goroutine fleet holds this at ~1).
	WallSeconds   float64
	SpeedupVsWall float64
	EventsPerSec  float64
	// AdmissionShed counts sheds decided by the Admit hook (a subset of
	// Result.Shed); ScaleActions counts autoscaler activate/deactivate
	// steps.
	AdmissionShed int64
	ScaleActions  int64
	// Chaos and resilience accounting: ChaosEvents counts schedule events
	// applied; Hedged counts backup dispatches launched, HedgeWasted the
	// copies that lost the first-wins race (or were cancelled in queue);
	// BrownoutShed counts arrivals shed by priority under backlog (a subset
	// of Result.Shed). Retried lives on the embedded fleet.Result.
	ChaosEvents  int64
	Hedged       int64
	HedgeWasted  int64
	BrownoutShed int64
	// Windows buckets the run into Config.StatsWindowNS spans of virtual
	// time (nil when windowing is off).
	Windows  []WindowStats
	Clusters []ClusterStats
}

// WindowStats is one fixed window of virtual time: arrivals bucketed by
// arrival time, completions by completion time, losses by decision time.
type WindowStats struct {
	StartNS    float64
	Arrived    int64
	Completed  int64
	Expired    int64
	Failed     int64
	Shed       int64
	Unroutable int64
}

// GoodputRPS is the window's completion rate in requests per virtual second.
func (w WindowStats) GoodputRPS(windowNS float64) float64 {
	if windowNS <= 0 {
		return 0
	}
	return float64(w.Completed) / windowNS * 1e9
}

// ClusterStats summarizes one cluster after a run.
type ClusterStats struct {
	Name       string
	Replicas   int
	Active     int
	Served     int64
	PeakQueued int64
	// AdmissionShed counts admission-hook rejections attributed to this
	// cluster (the cluster routing had picked before the hook refused).
	AdmissionShed int64
}

func (f *Fleet) compileResult(requests int, events int64, wall time.Duration) *Result {
	res := &Result{
		Result: fleet.Result{
			Offered:    requests,
			Completed:  int(f.completed.Load()),
			Shed:       int(f.shed.Load()),
			Unroutable: int(f.unroutable.Load()),
			Expired:    int(f.expired.Load()),
			Failed:     int(f.failed.Load()),
			Retried:    int(f.retried.Load()),
		},
		Events:        events,
		WallSeconds:   wall.Seconds(),
		AdmissionShed: f.admissionShed,
		ScaleActions:  f.scaleActions,
		ChaosEvents:   f.chaosEvents.Load(),
		Hedged:        f.hedged.Load(),
		HedgeWasted:   f.hedgeWasted.Load(),
		BrownoutShed:  f.brownoutShed.Load(),
		Windows:       f.windows,
	}
	var busy float64
	for _, r := range f.replicas {
		res.Batches += r.batches
		res.MeanBatch += float64(r.batchSum) // members for now; divided below
		busy += r.busyNS
	}
	if res.Batches > 0 {
		res.MeanBatch /= float64(res.Batches)
	} else {
		res.MeanBatch = 0
	}
	sort.Float64s(f.latencies)
	res.LatenciesNS = f.latencies
	if n := len(f.latencies); n > 0 {
		var sum float64
		for _, l := range f.latencies {
			sum += l
		}
		res.MeanNS = sum / float64(n)
		res.P50NS = percentile(f.latencies, 0.50)
		res.P95NS = percentile(f.latencies, 0.95)
		res.P99NS = percentile(f.latencies, 0.99)
		res.MaxNS = f.latencies[n-1]
	}
	res.MakespanNS = math.Max(f.makespan, f.lastArrival)
	res.VirtualNS = math.Max(res.MakespanNS, f.eng.Now())
	if res.MakespanNS > 0 {
		res.ThroughputRPS = float64(res.Completed) / res.MakespanNS * 1e9
		idle := 1 - busy/(float64(len(f.replicas))*res.MakespanNS)
		res.BubbleFraction = math.Min(1, math.Max(0, idle))
	}
	if res.WallSeconds > 0 {
		res.SpeedupVsWall = res.VirtualNS / 1e9 / res.WallSeconds
		res.EventsPerSec = float64(events) / res.WallSeconds
	}
	f.speedupGauge.set(res.SpeedupVsWall)
	for _, cl := range f.clusters {
		active := 0
		for _, r := range cl.replicas {
			if r.active {
				active++
			}
		}
		res.Clusters = append(res.Clusters, ClusterStats{
			Name:          cl.name,
			Replicas:      len(cl.replicas),
			Active:        active,
			Served:        cl.served,
			PeakQueued:    cl.peakQueued,
			AdmissionShed: cl.admissionShed,
		})
	}
	return res
}

// conservation checks that every offered request resolved exactly once and
// that every completion recorded a latency. O(1); RunTrace calls it on
// every run.
func (r *Result) conservation() error {
	if r.Completed+r.Shed+r.Unroutable+r.Expired+r.Failed != r.Offered {
		return fmt.Errorf("des: conservation: %d completed + %d shed + %d unroutable + %d expired + %d failed != %d offered",
			r.Completed, r.Shed, r.Unroutable, r.Expired, r.Failed, r.Offered)
	}
	if len(r.LatenciesNS) != r.Completed {
		return fmt.Errorf("des: conservation: %d latencies for %d completions", len(r.LatenciesNS), r.Completed)
	}
	return nil
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%d offered: %d completed, %d shed, %d expired; p50 %.4g ns, p99 %.4g ns, %.4g req/s; %d events (%.3gM ev/s), virtual/wall speedup %.3gx",
		r.Offered, r.Completed, r.Shed, r.Expired, r.P50NS, r.P99NS, r.ThroughputRPS,
		r.Events, r.EventsPerSec/1e6, r.SpeedupVsWall)
}

// percentile is the repo's nearest-rank convention (serving, fleet), so
// cross-checks compare like for like.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
