package main

import (
	"fmt"
	"runtime"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/rl"
	"autohet/internal/search"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// searchParams sizes the search workload: the paper's §4.5 search-cost
// setting, AutoHet's DDPG search on VGG16 (CIFAR-10) over the default
// five crossbar candidates with tile sharing.
type searchParams struct {
	Model      string `json:"model"`
	TileShared bool   `json:"tile_shared"`
	// Rounds is the length of one search; the workload runs searches back
	// to back (a closed loop of rounds), each with its own agent seed.
	Rounds int `json:"rounds_per_search"`
}

func defaultSearch() searchParams {
	return searchParams{Model: "VGG16", TileShared: true, Rounds: 100}
}

const searchStages = "autohet_search_stage_ns_total"

// searchRun is one finished search and what it cost.
type searchRun struct {
	res *search.Result
	// setup is everything before the first round: environment, agent, and
	// the homogeneous reference sweep.
	setup  time.Duration
	rounds []time.Duration
	// loopStart and stamps place the rounds in time for the trace.
	start, loopStart, end time.Time
	stamps                []time.Time
	before, after         map[string]int64
	// liveMB is search 0's live heap with its environment and agent held.
	liveMB float64
}

func (r *searchRun) loop() time.Duration { return r.end.Sub(r.loopStart) }

// runOneSearch runs search i of the workload. The round loop's start comes
// from the program's own "search" span, which covers the rounds and the
// final materialization of the winner.
func runOneSearch(m *dnn.Model, p searchParams, seed int64, i uint64) (*searchRun, error) {
	cfg := hw.DefaultConfig()
	r := &searchRun{stamps: make([]time.Time, 0, p.Rounds), before: counters()}
	r.start = time.Now()
	env, err := search.NewEnv(cfg, m, xbar.DefaultCandidates(), p.TileShared)
	if err != nil {
		return nil, err
	}
	opts := search.DefaultOptions()
	opts.Rounds = p.Rounds
	opts.Agent = rl.DefaultAgentConfig(search.StateDim)
	opts.Agent.Seed = subSeed(seed, i)
	opts.UpdateStride = updateStride(m)
	opts.Progress = func(search.RoundStats) { r.stamps = append(r.stamps, time.Now()) }
	res, err := search.AutoHet(env, opts)
	r.end = time.Now()
	if err != nil {
		return nil, err
	}
	r.res = res
	r.after = counters()
	if i == 0 {
		r.liveMB = liveHeapMB()
		runtime.KeepAlive(env)
	}
	span := time.Duration(counterDelta(r.before, r.after, searchStages+`{stage="search"}`))
	r.loopStart = r.end.Add(-span)
	r.setup = r.loopStart.Sub(r.start)
	prev := r.loopStart
	for _, s := range r.stamps {
		r.rounds = append(r.rounds, s.Sub(prev))
		prev = s
	}
	return r, nil
}

// checkSearch re-simulates the winner from scratch and requires the RUE the
// search reported.
func checkSearch(m *dnn.Model, p searchParams, r *searchRun) error {
	res := r.res
	if len(res.History) != p.Rounds || len(r.rounds) != p.Rounds {
		return fmt.Errorf("search ran %d rounds (%d reported), want %d", len(res.History), len(r.rounds), p.Rounds)
	}
	plan, err := accel.BuildPlan(hw.DefaultConfig(), m, res.Best, p.TileShared)
	if err != nil {
		return fmt.Errorf("winner %s does not build: %w", res.Best, err)
	}
	got, err := sim.Simulate(plan)
	if err != nil {
		return fmt.Errorf("winner %s does not simulate: %w", res.Best, err)
	}
	if want := res.BestResult.RUE(); got.RUE() != want || !(want > 0) {
		return fmt.Errorf("winner %s re-simulates to RUE %v, search reported %v", res.Best, got.RUE(), want)
	}
	return nil
}

func runSearch(rc runConfig, p searchParams) (*outcome, error) {
	m, err := dnn.ByName(p.Model)
	if err != nil {
		return nil, err
	}
	o := newOutcome(p)
	var setups, rounds []float64
	var loopTime time.Duration
	var first *searchRun
	mem := startMemPhase()
	start := time.Now()
	for i := uint64(0); i == 0 || time.Since(start) < rc.phase(); i++ {
		r, err := runOneSearch(m, p, rc.seed, i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r
		}
		o.checks.record(fmt.Sprintf("search %d", i), checkSearch(m, p, r))
		setups = append(setups, r.setup.Seconds())
		rounds = append(rounds, durationsMS(r.rounds)...)
		loopTime += r.loop()
	}
	mem.end(o.layers, len(rounds))
	rate := float64(len(rounds)) / loopTime.Seconds()
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput_per_s"] = rate
	o.e2e["latency_ms_p50"] = quantile(rounds, 0.5)
	o.e2e["latency_ms_p90"] = quantile(rounds, 0.9)
	recordMemory(o, first.liveMB)
	o.head("setup_s", o.e2e["setup_s"], "s")
	o.head("search_rounds_per_s", rate, "rounds/s")
	o.head("search_best_rue", first.res.BestResult.RUE(), "utilization/nJ")

	if rc.trace {
		if err := traceSearch(rc, m, p, first, rate, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceSearch reruns search 0 under the tracer and reads its layer split
// from the program's stage spans and evaluator counters.
func traceSearch(rc runConfig, m *dnn.Model, p searchParams, untraced *searchRun, rate float64, o *outcome) error {
	tr, err := startTrace(rc.traceDir)
	if err != nil {
		return err
	}
	r, err := runOneSearch(m, p, rc.seed, 0)
	if err != nil {
		return err
	}
	root := tr.add("search", 0, 0, r.start, r.end)
	tr.add("setup", root, 0, r.start, r.loopStart)
	prev := r.loopStart
	for _, s := range r.stamps {
		tr.add("round", root, 0, prev, s)
		prev = s
	}
	if err := tr.stop(); err != nil {
		return err
	}
	o.checks.record("traced search 0", checkSearch(m, p, r), sameRUE(untraced, r))

	res, l := r.res, o.layers
	learn := stageSeconds(r.before, r.after, searchStages, "learn")
	// AutoHet updates at every UpdateStride-th layer decision of a round.
	updates := float64(p.Rounds * ceilDiv(m.NumMappable(), updateStride(m)))
	l["bench.trace_overhead_frac"] = 1 - ratio(float64(p.Rounds)/r.loop().Seconds(), rate)
	l["rl.learn_s"] = learn
	l["rl.decide_s"] = stageSeconds(r.before, r.after, searchStages, "decide")
	l["rl.updates"] = updates
	l["rl.learn_ms_per_update"] = 1e3 * learn / updates
	l["search.simulate_s"] = stageSeconds(r.before, r.after, searchStages, "simulate")
	l["search.sim_s"] = res.SimTime.Seconds()
	l["search.evals"] = float64(res.Stats.Evals)
	l["search.cache_hits"] = float64(res.Stats.CacheHits)
	l["search.cache_hit_ratio"] = res.Stats.HitRate()
	l["search.ref_sweep_s"] = (res.TotalTime - r.loop()).Seconds()
	l["search.best_rue"] = res.BestResult.RUE()
	return nil
}

// sameRUE requires a rerun of a search to find the same winner.
func sameRUE(a, b *searchRun) error {
	if x, y := a.res.BestResult.RUE(), b.res.BestResult.RUE(); x != y {
		return fmt.Errorf("search is not deterministic: best RUE %v, rerun %v", x, y)
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// updateStride is the stride cmd/autohet and the experiments use.
func updateStride(m *dnn.Model) int { return m.NumMappable()/16 + 1 }
