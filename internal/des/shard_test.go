package des

import (
	"math"
	"sort"
	"testing"

	"autohet/internal/fleet"
	"autohet/internal/sim"
)

// fixedGaps replays a constant inter-arrival gap — deterministic arrivals
// for recurrence pins.
type fixedGaps struct{ gap float64 }

func (g fixedGaps) Name() string       { return "fixed" }
func (g fixedGaps) NextGapNS() float64 { return g.gap }

// TestShardChainRecurrenceDES pins the exact two-stage chain against a FIFO
// model: request i enters stage 0 at max(arrival, stage-0 free), completes
// one fill later, hops after the transfer, and resolves at stage 1 with
// latency measured from its original arrival — the same recurrence the
// goroutine fleet pins in its TestShardedChainRecurrence.
func TestShardChainRecurrenceDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.StageTransferNS = []float64{10}
	cfg.QueueDepth = 4096
	f, err := NewFleet(cfg,
		fleet.ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		fleet.ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 600, IntervalNS: 200}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	res, err := f.RunTrace(fixedGaps{gap: 50}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d: %v", res.Completed, n, res)
	}
	free0, free1 := 0.0, 0.0
	want := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		a := float64(i) * 50
		e0 := math.Max(free0, a)
		c0 := e0 + 1000
		free0 = e0 + 100
		hop := c0 + 10
		e1 := math.Max(free1, hop)
		c1 := e1 + 600
		free1 = e1 + 200
		want = append(want, c1-a)
	}
	got := append([]float64(nil), res.LatenciesNS...)
	sort.Float64s(want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("latency[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The chain always has exactly one stage busy per request-slot; two
	// replicas sharing the work leaves a real bubble.
	if res.BubbleFraction <= 0 || res.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction %v outside (0,1)", res.BubbleFraction)
	}
}

// TestShardCrossCheckGoroutine is the sharded rung-2 crosscheck: a 4-stage
// chain with one replica per stage and priced transfers must agree with the
// goroutine fleet's sharded runtime to float noise — same model, advanced
// differently.
func TestShardCrossCheckGoroutine(t *testing.T) {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
		{FillNS: 4000, IntervalNS: 250},
	}
	specs := make([]fleet.ReplicaSpec, len(shapes))
	for i := range shapes {
		pr := shapes[i]
		specs[i] = fleet.ReplicaSpec{Pipeline: &pr}
	}
	transfers := []float64{15, 40, 25}
	w := fleet.Workload{ArrivalRate: 2e6, Requests: 3000, Seed: 11}

	gcfg := fleet.DefaultConfig()
	gcfg.TimeScale = 1e-9
	gcfg.QueueDepth = w.Requests
	gcfg.Shards = 4
	gcfg.StageTransferNS = transfers
	gf, err := fleet.New(gcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(gf, w)
	gf.Close()
	if err != nil {
		t.Fatal(err)
	}

	dcfg := DefaultConfig()
	dcfg.QueueDepth = w.Requests
	dcfg.Shards = 4
	dcfg.StageTransferNS = transfers
	df, err := NewFleet(dcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.Shed != want.Shed || got.Failed != want.Failed {
		t.Fatalf("des %d completed %d shed %d failed, goroutine %d completed %d shed %d failed",
			got.Completed, got.Shed, got.Failed, want.Completed, want.Shed, want.Failed)
	}
	for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("%s: des %.6f ns, goroutine %.6f ns", p.name, p.got, p.want)
		}
	}
}

// TestShardBudgetSpansStagesDES: budgets anchor at the original arrival, so
// a request that clears stage 0 comfortably still expires when the chain
// overruns.
func TestShardBudgetSpansStagesDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	f, err := NewFleet(cfg,
		fleet.ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		fleet.ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Chain completion is 2000 per isolated request; a 1500 budget clears
	// stage 0 but expires at stage 1.
	res, err := f.RunTrace(fixedGaps{gap: 10_000}, 5, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 5 || res.Completed != 0 {
		t.Fatalf("expired %d completed %d, want all 5 expired: %v", res.Expired, res.Completed, res)
	}
}

// Sharded routing splits replicas across stages round-robin within each
// stage, and only the final stage resolves requests.
func TestShardStageRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.QueueDepth = 4096
	pr := sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	specs := make([]fleet.ReplicaSpec, 4)
	for i := range specs {
		p := pr
		specs[i] = fleet.ReplicaSpec{Pipeline: &p}
	}
	f, err := NewFleet(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if f.replicas[0].stage != 0 || f.replicas[1].stage != 0 || f.replicas[2].stage != 1 || f.replicas[3].stage != 1 {
		t.Fatalf("stage split %d,%d,%d,%d", f.replicas[0].stage, f.replicas[1].stage, f.replicas[2].stage, f.replicas[3].stage)
	}
	const n = 400
	res, err := f.Run(fleet.Workload{ArrivalRate: 2e6, Requests: n, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d: %v", res.Completed, n, res)
	}
	for _, r := range f.replicas {
		if r.served == 0 {
			t.Fatalf("replica %s served nothing", r.name)
		}
	}
	if f.replicas[0].served+f.replicas[1].served != n || f.replicas[2].served+f.replicas[3].served != n {
		t.Fatalf("per-stage served %d+%d, %d+%d; want %d each stage",
			f.replicas[0].served, f.replicas[1].served, f.replicas[2].served, f.replicas[3].served, n)
	}
}

func TestShardValidationDES(t *testing.T) {
	pr := func() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 1000, IntervalNS: 100} }
	cases := []func(*Config){
		func(c *Config) { c.Shards = 3 },                                      // more stages than replicas
		func(c *Config) { c.Shards = -1 },                                     // negative
		func(c *Config) { c.Shards = 2; c.StageTransferNS = []float64{1, 2} }, // wrong transfer length
		func(c *Config) { c.Shards = 2; c.StageTransferNS = []float64{-4} },   // negative transfer
		func(c *Config) { c.Shards = 2; c.Clusters = 2 },                      // clustered routing
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewFleet(cfg, fleet.ReplicaSpec{Pipeline: pr()}, fleet.ReplicaSpec{Pipeline: pr()}); err == nil {
			t.Fatalf("case %d: config must be rejected", i)
		}
	}
}
