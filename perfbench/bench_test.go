package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/xbar"
)

// Test-size variants of every workload: same code paths, small inputs.
func tinySearch() searchParams {
	p := defaultSearch()
	p.Rounds = 3
	return p
}

func tinyInfer(batch int) inferParams {
	p := defaultInfer(batch)
	p.Model, p.SetupReps, p.CheckSample, p.TracedCalls = "LeNet5", 1, 2, 2
	return p
}

func tinyServe() serveParams {
	p := defaultServe()
	p.Replicas, p.Clusters, p.RequestsPerRun, p.ChunkArrivals = 200, 4, 5000, 100
	return p
}

var tinyWorkloads = map[string]struct {
	run      func(runConfig) (*outcome, error)
	headline []string
}{
	"search": {func(rc runConfig) (*outcome, error) { return runSearch(rc, tinySearch()) },
		[]string{"search_rounds_per_s", "search_best_rue"}},
	"infer": {func(rc runConfig) (*outcome, error) { return runInfer(rc, tinyInfer(1)) },
		[]string{"infer_per_s", "infer_ms_p50", "infer_ms_p90"}},
	"infer-batch": {func(rc runConfig) (*outcome, error) { return runInfer(rc, tinyInfer(4)) },
		[]string{"infer_per_s"}},
	"serve": {func(rc runConfig) (*outcome, error) { return runServe(rc, tinyServe()) },
		[]string{"serve_requests_per_s", "serve_virtual_p50_ms", "serve_virtual_p99_ms", "serve_goodput_frac"}},
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	if len(tinyWorkloads) != len(workloads) {
		t.Fatalf("%d tiny workloads for %d workloads", len(tinyWorkloads), len(workloads))
	}
	for name, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 7, seconds: 0.05, trace: trace}
			if trace {
				rc.traceDir = t.TempDir()
			}
			o, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			res, err := finalResult(o, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %q", name, trace, s.name, m, s.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
				}
			}
			rep := o.report(name, rc)
			head := rep["metrics"].(map[string]metricValue)
			for _, h := range append([]string{"setup_s", "heap_live_mb", "peak_rss_mb", "failed_frac"}, w.headline...) {
				if m, ok := head[h]; !ok || m.Unit == "" {
					t.Errorf("%s: headline %s missing or without unit: %+v", name, h, m)
				}
			}
			if trace {
				for _, f := range []string{"cpu.pprof", "heap.pprof", "spans.json"} {
					if st, err := os.Stat(filepath.Join(rc.traceDir, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: traced run wrote no %s (%v)", name, f, err)
					}
				}
			}
		}
	}
}

func TestTracedLayersMoveOnTheirWorkload(t *testing.T) {
	want := map[string][]string{
		"search":      {"rl.learn_s", "rl.updates", "search.evals", "search.best_rue"},
		"infer":       {"sim.mvms", "sim.adc_conversions", "dnn.im2col_s", "quant.kernel_macs"},
		"infer-batch": {"sim.mean_kernel_batch", "quant.kernel_s", "dnn.pool_s"},
		"serve":       {"des.events", "des.completed", "trace.arrivals", "chaos.events", "serve.goodput_frac"},
	}
	for name, names := range want {
		o, err := tinyWorkloads[name].run(runConfig{seed: 3, seconds: 0.05, trace: true})
		if err != nil {
			t.Fatal(name, err)
		}
		for _, n := range names {
			if !(o.layers[n] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, n, o.layers[n])
			}
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// A corrupted output must be counted as a failed operation, and a run with
// one must not report correct.
func TestCorruptedOutputIsCounted(t *testing.T) {
	failedOnce := func(name string, c checks) {
		t.Helper()
		if c.attempted != 1 || c.failed != 1 {
			t.Errorf("%s: %d of %d failed, want 1 of 1", name, c.failed, c.attempted)
		}
		o := newOutcome(nil)
		o.checks = c
		for k := range endToEnd {
			o.e2e[endToEnd[k].name] = 1
		}
		if res, err := finalResult(o, false); err != nil || res.Correct || res.Failed != 1 {
			t.Errorf("%s: result %+v (%v), want correct false with 1 failed", name, res, err)
		}
	}

	t.Run("infer", func(t *testing.T) {
		m, _ := dnn.ByName("LeNet5")
		b := &inferBench{m: m, p: tinyInfer(1), seed: 5}
		if _, err := b.setup(); err != nil {
			t.Fatal(err)
		}
		out, _, err := b.eng.Run(b.input(0), b.opts)
		if err != nil {
			t.Fatal(err)
		}
		out[3] += 1e-9
		var c checks
		b.verifyBitExact(&c, [][]float64{out}, []int{0})
		failedOnce("infer", c)
	})

	t.Run("search", func(t *testing.T) {
		p := tinySearch()
		m, _ := dnn.ByName(p.Model)
		r, err := runOneSearch(m, p, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range xbar.DefaultCandidates() {
			if st := accel.Homogeneous(m.NumMappable(), s); st.String() != r.res.Best.String() {
				r.res.Best = st
				break
			}
		}
		var c checks
		c.record("search", checkSearch(m, p, r))
		failedOnce("search", c)
	})

	t.Run("serve", func(t *testing.T) {
		p := tinyServe()
		r, err := runOneServe(p, 5, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkServe(r.res, p.RequestsPerRun); err != nil {
			t.Fatalf("uncorrupted run fails its check: %v", err)
		}
		lat := r.res.LatenciesNS
		lat[0], lat[len(lat)-1] = lat[len(lat)-1], lat[0]
		var c checks
		c.record("serve", checkServe(r.res, p.RequestsPerRun))
		failedOnce("serve", c)
	})
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}
