// Command perfbench is the repository's benchmark. One process runs one
// workload through the public entry points of search, sim and des, checks
// every output, and prints its metrics:
//
//	bash perfbench/run.sh --workload <search|infer|infer-batch|serve> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// separate traced phase, whose spans and CPU and heap profiles are written
// under --out. The lines before it report the workload's headline metrics,
// its parameters and the machine it ran on. README.md lists what each
// metric measures and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metricSpec names one metric and its unit, exactly as BENCHMARK.json lists
// it.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What an "op" is depends on the workload: a
// search round, a RunBatch call, or a thousand offered requests.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not call reads 0.
var perLayer = []metricSpec{
	{"bench.trace_overhead_frac", "frac"},

	{"rl.learn_s", "s"},
	{"rl.decide_s", "s"},
	{"rl.updates", "count"},
	{"rl.learn_ms_per_update", "ms"},
	{"search.simulate_s", "s"},
	{"search.sim_s", "s"},
	{"search.evals", "count"},
	{"search.cache_hits", "count"},
	{"search.cache_hit_ratio", "frac"},
	{"search.ref_sweep_s", "s"},
	{"search.best_rue", "1/nJ"},

	{"sim.run_s", "s"},
	{"sim.patch_stream_s", "s"},
	{"sim.input_pack_s", "s"},
	{"sim.kernel_s", "s"},
	{"sim.mvms", "count"},
	{"sim.kernel_batches", "count"},
	{"sim.mean_kernel_batch", "count"},
	{"sim.adc_conversions", "count"},
	{"sim.weight_quantize_s", "s"},
	{"sim.pack_s", "s"},
	{"sim.weights_cache_hit_ratio", "frac"},

	{"dnn.im2col_s", "s"},
	{"quant.act_quantize_s", "s"},
	{"quant.kernel_s", "s"},
	{"dnn.scatter_s", "s"},
	{"dnn.pool_s", "s"},
	{"dnn.relu_s", "s"},
	{"quant.kernel_macs", "count"},
	{"quant.kernel_weight_bytes", "B"},

	{"des.build_s", "s"},
	{"des.run_s", "s"},
	{"des.events", "count"},
	{"des.events_per_request", "count"},
	{"des.ns_per_event", "ns"},
	{"des.completed", "count"},
	{"des.shed", "count"},
	{"des.expired", "count"},
	{"des.failed", "count"},
	{"des.unroutable", "count"},
	{"des.brownout_shed", "count"},
	{"des.batches", "count"},
	{"des.mean_batch", "count"},
	{"trace.next_s", "s"},
	{"trace.arrivals", "count"},
	{"chaos.events", "count"},
	{"chaos.retried", "count"},
	{"chaos.hedged", "count"},
	{"chaos.hedge_wasted", "count"},
	{"chaos.hedge_useful_ratio", "frac"},
	{"serve.virtual_p50_ms", "ms"},
	{"serve.virtual_p99_ms", "ms"},
	{"serve.goodput_frac", "frac"},

	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool
	// traceDir receives the traced phase's spans and profiles ("" writes
	// nothing).
	traceDir string
}

// phase is how long the untraced measured phase runs: all of --seconds,
// or half of it when the traced phase follows.
func (rc runConfig) phase() time.Duration {
	d := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		d /= 2
	}
	return d
}

// workloads maps each workload name to its runner at full size.
var workloads = map[string]func(runConfig) (*outcome, error){
	"search":      func(rc runConfig) (*outcome, error) { return runSearch(rc, defaultSearch()) },
	"infer":       func(rc runConfig) (*outcome, error) { return runInfer(rc, defaultInfer(1)) },
	"infer-batch": func(rc runConfig) (*outcome, error) { return runInfer(rc, defaultInfer(32)) },
	"serve":       func(rc runConfig) (*outcome, error) { return runServe(rc, defaultServe()) },
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalResult assembles the last line: the end-to-end metrics, or with
// tracing the per-layer ones.
func finalResult(o *outcome, trace bool) (result, error) {
	specs, values := endToEnd, o.e2e
	if trace {
		specs, values = perLayer, o.layers
	}
	r := result{
		Correct:   o.checks.failed == 0,
		Attempted: o.checks.attempted,
		Failed:    o.checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok && !trace {
			return r, fmt.Errorf("perfbench: workload reported no %s", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("perfbench: metric %s is %v", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return r, nil
}

func main() {
	workload := flag.String("workload", "", "search, infer, infer-batch or serve")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs a traced phase and reports per-layer metrics")
	out := flag.String("out", ".bench_build/trace", "directory for spans and profiles of traced runs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if rc.trace {
		rc.traceDir = fmt.Sprintf("%s/%s-seed%d", *out, *workload, *seed)
	}
	o, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := finalResult(o, rc.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep := o.report(*workload, rc)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
