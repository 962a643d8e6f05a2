package des

import (
	"math"
	"testing"

	"autohet/internal/fleet"
	"autohet/internal/serving"
	"autohet/internal/sim"
)

// The DES fleet must not be a second opinion on service timing — it must be
// the same model, advanced differently. Three rungs, in decreasing
// strictness:
//
//  1. A solo replica applies serving.Serve's pipelined recurrence with a
//     bit-identical arrival trace, so every latency statistic matches to
//     float noise.
//  2. Round-robin dispatch is a pure function of submission order, which
//     both runtimes share, so a 16-replica heterogeneous fleet matches the
//     goroutine runtime request for request.
//  3. Queue-aware policies (jsq/lo/p2c) read racy wall-clock queue lengths
//     in the goroutine runtime but exact virtual backlogs here, so the
//     assignments differ; with fill dominating the latency (100× interval)
//     the distributions still have to agree to a few percent. The goroutine
//     runtime is paced for this rung: free-running, its queue lengths
//     follow goroutine scheduling, and a starved CPU lets one replica
//     loop drain ahead and soak up virtual backlog.

func statPairs(got *Result, meanNS, p50, p95, p99, maxNS float64) []struct {
	name      string
	got, want float64
} {
	return []struct {
		name      string
		got, want float64
	}{
		{"mean", got.MeanNS, meanNS},
		{"p50", got.P50NS, p50},
		{"p95", got.P95NS, p95},
		{"p99", got.P99NS, p99},
		{"max", got.MaxNS, maxNS},
	}
}

// TestCrossCheckServingSolo: rung 1.
func TestCrossCheckServingSolo(t *testing.T) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	for _, load := range []float64{0.3, 0.8, 1.5} {
		w := serving.Workload{ArrivalRate: load * 1e9 / pr.IntervalNS, Requests: 3000, Seed: 9}
		want, err := serving.Serve(pr, w)
		if err != nil {
			t.Fatal(err)
		}

		cfg := DefaultConfig()
		cfg.QueueDepth = w.Requests
		f, err := NewFleet(cfg, fleet.ReplicaSpec{Name: "solo", Pipeline: pr})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Run(fleet.Workload{ArrivalRate: w.ArrivalRate, Requests: w.Requests, Seed: w.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed || got.Shed != 0 {
			t.Fatalf("load %.0f%%: des completed %d (shed %d), serving completed %d",
				100*load, got.Completed, got.Shed, want.Completed)
		}
		for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
			if math.Abs(p.got-p.want) > 1e-9*math.Max(1, p.want) {
				t.Errorf("load %.0f%% %s: des %.6f ns, serving %.6f ns", 100*load, p.name, p.got, p.want)
			}
		}
	}
}

// specs16 is a heterogeneous 16-replica fleet: four pipeline shapes with
// distinct fill/interval ratios.
func specs16() []fleet.ReplicaSpec {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
		{FillNS: 4000, IntervalNS: 250},
	}
	specs := make([]fleet.ReplicaSpec, 16)
	for i := range specs {
		pr := shapes[i%len(shapes)]
		specs[i] = fleet.ReplicaSpec{Pipeline: &pr}
	}
	return specs
}

// runBoth drives the goroutine fleet (at the given wall-clock TimeScale) and
// the DES fleet over the same workload and policy.
func runBoth(t *testing.T, policy fleet.Policy, specs []fleet.ReplicaSpec, w fleet.Workload, timeScale float64) (*fleet.Result, *Result) {
	t.Helper()
	gcfg := fleet.DefaultConfig()
	gcfg.TimeScale = timeScale
	gcfg.QueueDepth = w.Requests
	gcfg.Policy = policy
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
	dcfg.Policy = policy
	df, err := NewFleet(dcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return want, got
}

// TestCrossCheckGoroutineRoundRobin: rung 2 — exact distribution parity.
func TestCrossCheckGoroutineRoundRobin(t *testing.T) {
	w := fleet.Workload{ArrivalRate: 4e7, Requests: 4000, Seed: 5}
	want, got := runBoth(t, fleet.RoundRobin, specs16(), w, 1e-9)
	if got.Completed != want.Completed || got.Shed != want.Shed {
		t.Fatalf("des %d completed %d shed, goroutine %d completed %d shed",
			got.Completed, got.Shed, want.Completed, want.Shed)
	}
	for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("%s: des %.6f ns, goroutine %.6f ns", p.name, p.got, p.want)
		}
	}
}

// TestCrossCheckGoroutineQueueAware: rung 3 — statistical parity for the
// queue-aware policies on a homogeneous fleet at moderate load, where the
// fill term dominates whatever the assignment noise contributes.
func TestCrossCheckGoroutineQueueAware(t *testing.T) {
	pr := sim.PipelineResult{FillNS: 10000, IntervalNS: 100}
	specs := make([]fleet.ReplicaSpec, 8)
	for i := range specs {
		p := pr
		specs[i] = fleet.ReplicaSpec{Pipeline: &p}
	}
	// Half the aggregate capacity of 8 × 1e7 rps.
	w := fleet.Workload{ArrivalRate: 4e7, Requests: 4000, Seed: 7}
	for _, policy := range []fleet.Policy{fleet.JoinShortestQueue, fleet.LeastOutstanding, fleet.PowerOfTwo} {
		// 1e4 wall ns per virtual ns: the 100 µs virtual trace takes 1 s,
		// so millisecond scheduler stalls stay well under one interval
		// of virtual skew.
		want, got := runBoth(t, policy, specs, w, 1e4)
		if got.Completed != want.Completed {
			t.Fatalf("%s: des completed %d, goroutine %d", policy, got.Completed, want.Completed)
		}
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"mean", got.MeanNS, want.MeanNS},
			{"p50", got.P50NS, want.P50NS},
		} {
			if math.Abs(p.got-p.want) > 0.03*p.want {
				t.Errorf("%s %s: des %.1f ns, goroutine %.1f ns (>3%%)", policy, p.name, p.got, p.want)
			}
		}
	}
}
