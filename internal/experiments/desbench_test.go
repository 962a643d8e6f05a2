package experiments

import (
	"os"
	"runtime"
	"testing"

	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
)

// TestDESFloorSmoke is the CI bench-floor gate for the DES engine: one
// moderate-scale run (4k replicas, 64 clusters, 400k requests, jsq under rr
// cluster routing) must stay near allocation-free per event
// (BENCH_fleet.json tracks throughput). It only runs when asked for
// explicitly (AUTOHET_BENCH_SMOKE=1).
func TestDESFloorSmoke(t *testing.T) {
	if os.Getenv("AUTOHET_BENCH_SMOKE") == "" {
		t.Skip("set AUTOHET_BENCH_SMOKE=1 to run the timing-sensitive bench smoke")
	}
	cfg := des.DefaultConfig()
	cfg.Policy = fleet.JoinShortestQueue
	cfg.ClusterPolicy = fleet.RoundRobin
	cfg.Clusters = 64
	cfg.QueueDepth = 64
	cfg.Seed = 1
	f, err := des.NewFleet(cfg, desSpecs(4000)...)
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.7 * 4000 * 100 // 70% of aggregate capacity at 100 req/s per replica
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := f.RunTrace(trace.Bursty(rate, 1.8, 50e6, 1), 400_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(res.Events)
	t.Logf("%.0f ev/s, %.4f allocs/event", res.EventsPerSec, allocs)
	if allocs > 0.05 {
		t.Fatalf("DES run allocates %.4f allocs/event, ceiling 0.05", allocs)
	}
}
