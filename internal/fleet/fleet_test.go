package fleet

import (
	"math"
	"strings"
	"testing"

	"autohet/internal/fault"
	"autohet/internal/sim"
)

// fastPipeline and slowPipeline are fixed service profiles so tests stay
// independent of plan construction. freeRunning disables wall pacing; the
// virtual accounting is exact either way.
func fastPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 1000, IntervalNS: 100} }
func slowPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 4000, IntervalNS: 800} }

func freeRunning() Config {
	cfg := DefaultConfig()
	cfg.TimeScale = 1e-9
	return cfg
}

// stage admits a request to a specific replica without going through the
// dispatcher, for deterministic pre-loaded-queue tests on unstarted fleets.
func stage(t *testing.T, f *Fleet, ri int, rq *Request) {
	t.Helper()
	if !f.enqueue(f.replicas[ri], rq) {
		t.Fatalf("staging queue %d full", ri)
	}
}

func TestSingleReplicaRecurrence(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals every 50 ns against a 100 ns interval: entry_i =
	// max(arrival_i, entry_{i-1}+100), completion = entry + 1000.
	const n = 50
	done := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		if err := f.Submit(NewRequest(float64(i)*50, 0, done)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	got := map[float64]int{}
	for i := 0; i < n; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		got[out.LatencyNS]++
	}
	// Request i arrives at 50i, enters at 100i (the pipeline is the
	// bottleneck from the first request on), so latency = 1000 + 50i.
	for i := 0; i < n; i++ {
		want := 1000 + 50*float64(i)
		if got[want] != 1 {
			t.Fatalf("latency %v appears %d times, want once", want, got[want])
		}
	}
	s := f.Snapshot()
	if s.Completed != n || s.Shed != 0 || s.Expired != 0 {
		t.Fatalf("snapshot %v", s)
	}
}

func TestBatchingBySize(t *testing.T) {
	cfg := freeRunning()
	cfg.MaxBatch = 8
	f, err := newFleet(cfg, ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 8)
	for i := 0; i < 8; i++ {
		stage(t, f, 0, NewRequest(0, 0, done))
	}
	f.start()
	f.Close()
	got := map[float64]int{}
	for i := 0; i < 8; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		got[out.LatencyNS]++
	}
	// One batch of 8 entering at 0: member i completes at fill + i·interval.
	for i := 0; i < 8; i++ {
		want := 1000 + 100*float64(i)
		if got[want] != 1 {
			t.Fatalf("latency %v appears %d times, want once", want, got[want])
		}
	}
	s := f.Snapshot().Replicas[0]
	if s.Batches != 1 || s.MeanBatch != 8 {
		t.Fatalf("batches %d mean %v, want one batch of 8", s.Batches, s.MeanBatch)
	}
}

func TestBatchTimeoutAddsLatency(t *testing.T) {
	cfg := freeRunning()
	cfg.MaxBatch = 8
	cfg.BatchTimeoutNS = 5000
	f, err := New(cfg, ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1)
	if err := f.Submit(NewRequest(0, 0, done)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := <-done
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// A lone request waits out the batch timeout before entering.
	want := 5000 + 1000.0
	if out.LatencyNS != want {
		t.Fatalf("latency %v, want %v (timeout + fill)", out.LatencyNS, want)
	}
}

func TestBackpressureSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	cfg.TimeScale = 0.01 // pace so the queue actually fills
	f, err := New(cfg, ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1e6, IntervalNS: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	done := make(chan Outcome, n)
	accepted, shed := 0, 0
	for i := 0; i < n; i++ {
		switch err := f.Submit(NewRequest(float64(i), 0, done)); err {
		case nil:
			accepted++
		case ErrShed:
			shed++
		default:
			t.Fatal(err)
		}
	}
	f.Close()
	if shed == 0 {
		t.Fatal("burst into a depth-2 queue must shed")
	}
	for i := 0; i < accepted; i++ {
		if out := <-done; out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	s := f.Snapshot()
	if int(s.Shed) != shed || int(s.Completed) != accepted || s.Submitted != n {
		t.Fatalf("accounting: %v (accepted %d, shed %d)", s, accepted, shed)
	}
}

func TestLatencyBudgetExpires(t *testing.T) {
	f, err := newFleet(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	done := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		// All arrive at 0 with budget 1249: request i would complete at
		// 100i + 1000, so exactly requests 0..2 fit.
		stage(t, f, 0, NewRequest(0, 1249, done))
	}
	f.start()
	f.Close()
	completed, expired := 0, 0
	for i := 0; i < n; i++ {
		switch out := <-done; out.Err {
		case nil:
			completed++
		case ErrDeadline:
			expired++
		default:
			t.Fatal(out.Err)
		}
	}
	if completed != 3 || expired != n-3 {
		t.Fatalf("completed %d expired %d, want 3 and %d", completed, expired, n-3)
	}
	s := f.Snapshot()
	if s.Expired != int64(n-3) || s.Replicas[0].Expired != int64(n-3) {
		t.Fatalf("expired counters %d / %d", s.Expired, s.Replicas[0].Expired)
	}
}

func TestDegradedReplicaRetriesElsewhere(t *testing.T) {
	f, err := newFleet(freeRunning(),
		ReplicaSpec{Name: "healthy", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "faulty", Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	done := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		stage(t, f, 1, NewRequest(float64(i)*10, 0, done))
	}
	// 5% stuck-at cells is far above the 1% degradation threshold.
	if err := f.InjectFault("faulty", &fault.Model{StuckAtZero: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	f.start()
	f.Close()
	for i := 0; i < n; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Replica != "healthy" || out.Retries != 1 {
			t.Fatalf("outcome %+v, want served by healthy after one retry", out)
		}
	}
	s := f.Snapshot()
	if s.Retried != n || s.Completed != n || s.Failed != 0 {
		t.Fatalf("snapshot %v", s)
	}
}

func TestAllDegradedFailsAfterRetry(t *testing.T) {
	f, err := newFleet(freeRunning(), ReplicaSpec{Name: "only", Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1)
	stage(t, f, 0, NewRequest(0, 0, done))
	if err := f.InjectFault("only", &fault.Model{StuckAtOne: 0.02}); err != nil {
		t.Fatal(err)
	}
	f.start()
	f.Close()
	out := <-done
	if out.Err != ErrNoReplica {
		t.Fatalf("outcome err %v, want ErrNoReplica", out.Err)
	}
	if s := f.Snapshot(); s.Failed != 1 {
		t.Fatalf("failed %d, want 1", s.Failed)
	}
	// Submitting against a fully degraded fleet is rejected up front.
	f2, err := New(freeRunning(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := f2.Submit(NewRequest(0, 0, done)); err != ErrNoReplica {
		t.Fatalf("submit to degraded fleet: %v, want ErrNoReplica", err)
	}
}

// Regression: overload rejections (ErrShed, every healthy queue full) and
// outage rejections (ErrNoReplica, nothing healthy) land on separate
// counters, so chaos experiments can tell backpressure from blast radius.
func TestShedVsUnroutableSplit(t *testing.T) {
	// Outage: a fully degraded fleet counts Unroutable, never Shed.
	f, err := New(freeRunning(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 4)
	for i := 0; i < 3; i++ {
		if err := f.Submit(NewRequest(float64(i), 0, done)); err != ErrNoReplica {
			t.Fatalf("submit %d: %v, want ErrNoReplica", i, err)
		}
	}
	f.Close()
	if s := f.Snapshot(); s.Unroutable != 3 || s.Shed != 0 {
		t.Fatalf("outage accounting: %v, want 3 unroutable / 0 shed", s)
	}

	// Overload: a healthy fleet with full queues counts Shed, never
	// Unroutable (the replica loop is not started, so queued work stays).
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	f2, err := newFleet(cfg, ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := 0; i < 3; i++ {
		switch err := f2.Submit(NewRequest(float64(i), 0, done)); err {
		case nil:
		case ErrShed:
			shed++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed != 2 {
		t.Fatalf("depth-1 queue took %d sheds from 3 submits, want 2", shed)
	}
	f2.start()
	f2.Close()
	if s := f2.Snapshot(); s.Shed != 2 || s.Unroutable != 0 {
		t.Fatalf("overload accounting: %v, want 2 shed / 0 unroutable", s)
	}
}

func TestInjectFaultBelowThresholdAndRecovery(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Name: "a", Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: 0.001}); err != nil {
		t.Fatal(err)
	}
	if f.Snapshot().Replicas[0].Degraded {
		t.Fatal("0.1% faults must stay below the 1% degradation threshold")
	}
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !f.Snapshot().Replicas[0].Degraded {
		t.Fatal("50% faults must degrade")
	}
	if err := f.InjectFault("a", nil); err != nil {
		t.Fatal(err)
	}
	if f.Snapshot().Replicas[0].Degraded {
		t.Fatal("nil model must recover the replica")
	}
	if err := f.InjectFault("missing", nil); err == nil {
		t.Fatal("unknown replica must error")
	}
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: -1}); err == nil {
		t.Fatal("invalid model must error")
	}
}

func TestPolicyPick(t *testing.T) {
	mk := func(policy Policy) *Fleet {
		cfg := freeRunning()
		cfg.Policy = policy
		f, err := newFleet(cfg,
			ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
			ReplicaSpec{Name: "b", Pipeline: fastPipeline()},
			ReplicaSpec{Name: "c", Pipeline: fastPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	done := make(chan Outcome, 16)

	rr := mk(RoundRobin)
	rr.replicas[1].setHealth(0)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[rr.pick(0, nil).name]++
	}
	if seen["a"] != 3 || seen["c"] != 3 || seen["b"] != 0 {
		t.Fatalf("round-robin over healthy replicas: %v", seen)
	}

	jsq := mk(JoinShortestQueue)
	stage(t, jsq, 0, NewRequest(0, 0, done))
	stage(t, jsq, 0, NewRequest(0, 0, done))
	stage(t, jsq, 1, NewRequest(0, 0, done))
	if got := jsq.pick(0, nil).name; got != "c" {
		t.Fatalf("jsq picked %q, want the empty queue c", got)
	}
	if got := jsq.pick(0, jsq.replicas[2]).name; got != "b" {
		t.Fatalf("jsq excluding c picked %q, want b", got)
	}

	lo := mk(LeastOutstanding)
	lo.replicas[0].outstanding.Add(5)
	lo.replicas[2].outstanding.Add(2)
	if got := lo.pick(0, nil).name; got != "b" {
		t.Fatalf("least-outstanding picked %q, want b", got)
	}

	p2c := mk(PowerOfTwo)
	stage(t, p2c, 0, NewRequest(0, 0, done))
	stage(t, p2c, 0, NewRequest(0, 0, done))
	stage(t, p2c, 1, NewRequest(0, 0, done))
	stage(t, p2c, 1, NewRequest(0, 0, done))
	// c is empty; of any sampled pair, p2c never picks the strictly longer
	// queue, so across draws c must win whenever sampled and a/b tie.
	for i := 0; i < 32; i++ {
		r := p2c.pick(0, nil)
		if len(r.queue) > 2 {
			t.Fatalf("p2c picked an impossible queue length %d", len(r.queue))
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %q, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must error")
	}
}

func TestCloseIsIdempotentAndRejects(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 4)
	for i := 0; i < 4; i++ {
		if err := f.Submit(NewRequest(float64(i), 0, done)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	f.Close()
	if err := f.Submit(NewRequest(0, 0, done)); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 4; i++ {
		if out := <-done; out.Err != nil {
			t.Fatal(out.Err)
		}
	}
}

func TestValidation(t *testing.T) {
	good := ReplicaSpec{Pipeline: fastPipeline()}
	cases := []struct {
		name  string
		cfg   Config
		specs []ReplicaSpec
	}{
		{"no replicas", DefaultConfig(), nil},
		{"degenerate pipeline", DefaultConfig(), []ReplicaSpec{{Pipeline: &sim.PipelineResult{}}}},
		{"nil pipeline", DefaultConfig(), []ReplicaSpec{{}}},
		{"duplicate names", DefaultConfig(), []ReplicaSpec{{Name: "x", Pipeline: fastPipeline()}, {Name: "x", Pipeline: fastPipeline()}}},
		{"bad policy", Config{Policy: "nope"}, []ReplicaSpec{good}},
		{"negative batch", Config{MaxBatch: -1}, []ReplicaSpec{good}},
		{"negative queue", Config{QueueDepth: -1}, []ReplicaSpec{good}},
		{"negative timescale", Config{TimeScale: -1}, []ReplicaSpec{good}},
		{"negative retries", Config{MaxRetries: -2}, []ReplicaSpec{good}},
		{"bad fault model", DefaultConfig(), []ReplicaSpec{{Pipeline: fastPipeline(), Faults: &fault.Model{StuckAtZero: 2}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.specs...); err == nil {
			t.Errorf("%s: must error", c.name)
		}
	}
	if err := (&Fleet{}).Submit(nil); err == nil {
		t.Error("nil request must error")
	}
}

func TestRunValidationAndSummary(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Run(f, Workload{ArrivalRate: 0, Requests: 10}); err == nil {
		t.Fatal("zero rate must error")
	}
	if _, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 0}); err == nil {
		t.Fatal("zero requests must error")
	}
	res, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed %d", res.Completed)
	}
	if !(res.P50NS <= res.P95NS && res.P95NS <= res.P99NS && res.P99NS <= res.MaxNS) {
		t.Fatalf("percentiles out of order: %+v", res)
	}
	if !strings.Contains(res.String(), "100 offered") {
		t.Fatalf("summary %q", res.String())
	}
	if !strings.Contains(f.Snapshot().String(), "fleet[1 replicas]") {
		t.Fatalf("snapshot summary %q", f.Snapshot().String())
	}
}

func TestSeedZeroMatchesServingDefault(t *testing.T) {
	w := Workload{ArrivalRate: 5e6, Requests: 300}
	run := func(seed int64) *Result {
		// A free-running submitter can outrun the replica loop; a queue
		// that holds the whole trace keeps shedding (and so the completed
		// set) independent of goroutine scheduling.
		cfg := freeRunning()
		cfg.QueueDepth = w.Requests
		f, err := New(cfg, ReplicaSpec{Pipeline: fastPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		w.Seed = seed
		res, err := Run(f, w)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if res.Completed != w.Requests {
			t.Fatalf("seed %d: completed %d of %d (shed %d)", seed, res.Completed, w.Requests, res.Shed)
		}
		return res
	}
	zero, def := run(0), run(42)
	if math.Abs(zero.MeanNS-def.MeanNS) > 1e-9 {
		t.Fatalf("Seed 0 mean %v != DefaultSeed mean %v", zero.MeanNS, def.MeanNS)
	}
}
