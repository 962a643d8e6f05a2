package des

import (
	"bufio"
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
)

// scriptedScaler returns its decisions in order, then holds the last one.
type scriptedScaler struct {
	seq []int
	n   int
}

func (s *scriptedScaler) Decide(Signal) int {
	d := s.seq[min(s.n, len(s.seq)-1)]
	s.n++
	return d
}

// Activating a crashed replica must not count it as dispatchable: scale to
// 2 of 4, crash the inactive r3, scale back to 4. Only 3 replicas may take
// traffic, and no request may be routed to r3 while it is down.
func TestScaleUpSkipsCrashedReplica(t *testing.T) {
	var log bytes.Buffer
	cfg := DefaultConfig()
	cfg.Scaler = &scriptedScaler{seq: []int{2, 4}}
	cfg.ControlPeriodNS = 1e5
	cfg.Chaos = chaos.Scripted(chaos.Event{AtNS: 1.5e5, Kind: chaos.Crash, Target: "r3"})
	cfg.Log = &log
	f, err := NewFleet(cfg, homogeneous(4, 2000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(1e7, 5), 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if got := f.clusters[0].dispatchable; got != 3 {
		t.Errorf("dispatchable count %d after reactivating crashed r3, want 3", got)
	}
	crashed, routed := false, 0
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "K ") && strings.Contains(line, "target=r3"):
			crashed = true
		case crashed && strings.HasPrefix(line, "D ") && strings.Contains(line, " r=r3 "):
			routed++
		}
	}
	if !crashed {
		t.Fatal("crash event never fired")
	}
	if routed > 0 {
		t.Errorf("%d requests routed to crashed r3", routed)
	}
}

// FuzzClusterPick drives random queue, chaos, scaling and breaker
// sequences on a small clustered fleet and, after every operation, checks
// the incremental dispatch state against a linear recount: each cluster's
// pick equals pickAmong over the filtered candidate scan, and the
// per-cluster dispatchable and fleet live-cluster counts match.
func FuzzClusterPick(f *testing.F) {
	policies := []fleet.Policy{fleet.JoinShortestQueue, fleet.LeastOutstanding, fleet.RoundRobin, fleet.PowerOfTwo}
	for seed := int64(0); seed < 12; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(seed, uint8(seed), ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		cfg := DefaultConfig()
		cfg.Policy = policies[int(policy)%len(policies)]
		cfg.ClusterPolicy = fleet.RoundRobin
		cfg.Clusters = 3
		cfg.MaxBatch = 2
		cfg.QueueDepth = 1 << 10
		cfg.Resilience.Breaker = &chaos.BreakerConfig{FailureThreshold: 2, OpenNS: 50, ProbeSuccesses: 1}
		fl, err := NewFleet(cfg, hetSpecs(10)...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		id := 0
		for step, op := range ops {
			fl.eng.setNow(fl.eng.Now() + float64(rng.Intn(40)))
			r := fl.replicas[rng.Intn(len(fl.replicas))]
			switch op % 10 {
			case 0, 1: // enqueue onto any replica, dispatchable or not
				id++
				fl.enqueue(r, simReq{id: id, arrival: fl.eng.Now(), enqueued: fl.eng.Now()})
			case 2: // pop a batch
				if !r.busy && r.queue.n > 0 {
					fl.executeBatch(r, min(r.queue.n, cfg.MaxBatch), false)
				}
			case 3: // pipeline frees
				if r.busy {
					fl.onFree(r)
				}
			case 4:
				fl.applyChaos(chaos.Event{Kind: chaos.Crash, Target: r.name}, r)
			case 5:
				fl.applyChaos(chaos.Event{Kind: chaos.Restart, Target: r.name}, r)
			case 6: // fault storm: healthy, degraded or dead
				v := []float64{0, 0.005, 0.02}[rng.Intn(3)]
				fl.applyChaos(chaos.Event{Kind: chaos.Faults, Target: r.name, Value: v}, r)
			case 7:
				fl.setActive(1 + rng.Intn(len(fl.replicas)))
			case 8: // breaker outcome
				fl.record(r, rng.Intn(3) == 0)
			case 9: // a pick commits: claims a half-open probe
				fl.route(r)
			}
			checkDispatchState(t, fl, step)
		}
	})
}

// checkDispatchState compares fl's incremental dispatch state with a linear
// recount, and each cluster's pick with pickAmong over the filtered scan.
// Stateful policies (rr cursor, p2c sampler) replay from the same state.
func checkDispatchState(t *testing.T, fl *Fleet, step int) {
	t.Helper()
	now := fl.eng.Now()
	live := 0
	for _, cl := range fl.clusters {
		var cands []*simReplica
		n, tripped := 0, 0
		for _, r := range cl.replicas {
			if r.dispatchable() {
				n++
				if r.breaker.CanRoute(now) {
					cands = append(cands, r)
				}
			}
			if tr := r.breaker.State() != chaos.BreakerClosed; tr != r.tripped {
				t.Fatalf("step %d: %s cached tripped=%v, breaker says %v", step, r.name, r.tripped, tr)
			} else if tr {
				tripped++
			}
		}
		if n != cl.dispatchable {
			t.Fatalf("step %d: %s counts %d dispatchable, recount %d", step, cl.name, cl.dispatchable, n)
		}
		if tripped != len(cl.tripped) {
			t.Fatalf("step %d: %s lists %d tripped, recount %d", step, cl.name, len(cl.tripped), tripped)
		}
		if n > 0 {
			live++
		}
		rr := cl.rrNext
		fl.rng = rand.New(rand.NewSource(int64(step)))
		got := fl.pickInCluster(cl)
		cl.rrNext = rr
		fl.rng = rand.New(rand.NewSource(int64(step)))
		var want *simReplica
		if len(cands) > 0 {
			want = fl.pickAmong(&cl.rrNext, cands)
		}
		if got != want {
			t.Fatalf("step %d: %s %s pick %v, linear scan %v", step, cl.name, fl.cfg.Policy, nameOf(got), nameOf(want))
		}
	}
	if live != fl.live {
		t.Fatalf("step %d: %d live clusters counted, recount %d", step, fl.live, live)
	}
}

func nameOf(r *simReplica) string {
	if r == nil {
		return "<nil>"
	}
	return r.name
}
