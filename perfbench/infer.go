package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// inferParams sizes the infer workloads: fast functional inference of
// AlexNet (MNIST, the paper's Table 2 pairing) on a warm sim.Engine over a
// homogeneous 128×128 tile-shared plan, one client in a closed loop.
type inferParams struct {
	Model      string `json:"model"`
	Crossbar   int    `json:"crossbar"`
	TileShared bool   `json:"tile_shared"`
	// Batch is the number of distinct inputs per RunBatch call.
	Batch int `json:"batch"`
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// CheckSample is how many timed inputs are re-run bit-exact.
	CheckSample int `json:"check_sample"`
	// TracedCalls is the traced phase's fixed number of calls.
	TracedCalls int `json:"traced_calls"`
}

func defaultInfer(batch int) inferParams {
	p := inferParams{Model: "AlexNet", Crossbar: 128, TileShared: true,
		Batch: batch, SetupReps: 3, CheckSample: 4, TracedCalls: 48}
	if batch > 1 {
		p.TracedCalls = 3
	}
	return p
}

const (
	simStages = "autohet_sim_stage_ns_total"
	weightHit = `autohet_sim_cache_events_total{cache="weights",event="hit"}`
	weightMis = `autohet_sim_cache_events_total{cache="weights",event="miss"}`
	weightsID = 1 << 40 // subSeed stream of the synthetic weights; inputs use their index
)

// inferBench is one warm engine and the inputs it is fed: input i is the
// same tensor on every run with the same seed.
type inferBench struct {
	m    *dnn.Model
	p    inferParams
	seed int64
	plan *accel.Plan
	eng  *sim.Engine
	opts sim.InferenceOptions
	// perInf is one inference's work, from the warm-up call.
	perInf sim.InferenceStats
	outLen int
}

func (b *inferBench) input(i int) *dnn.Tensor {
	return dnn.SyntheticTensor(b.m.InC, b.m.InH, b.m.InW, subSeed(b.seed, uint64(i)))
}

// call returns the inputs of RunBatch call c: inputs c·B … c·B+B−1.
func (b *inferBench) call(c int) []*dnn.Tensor {
	ins := make([]*dnn.Tensor, b.p.Batch)
	for k := range ins {
		ins[k] = b.input(c*b.p.Batch + k)
	}
	return ins
}

// setup builds the plan and a fresh engine and warms it with one call of
// the workload's batch shape, so weight quantization, packing and scratch
// growth all land here rather than in the first timed call.
func (b *inferBench) setup() (time.Duration, error) {
	warm := make([]*dnn.Tensor, b.p.Batch)
	for k := range warm {
		warm[k] = b.input(-1 - k)
	}
	start := time.Now()
	plan, err := accel.BuildPlan(hw.DefaultConfig(), b.m,
		accel.Homogeneous(b.m.NumMappable(), xbar.Square(b.p.Crossbar)), b.p.TileShared)
	if err != nil {
		return 0, err
	}
	eng := sim.NewEngine(plan)
	outs, st, err := eng.RunBatch(warm, b.opts)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	b.plan, b.eng, b.outLen = plan, eng, len(outs[0])
	n := int64(b.p.Batch)
	b.perInf = sim.InferenceStats{MVMs: st.MVMs / n, ADCConversions: st.ADCConversions / n}
	return d, nil
}

// checkCall checks what can be checked on every call: shape, finiteness,
// and the work the engine reports against the warm-up's.
func (b *inferBench) checkCall(outs [][]float64, st sim.InferenceStats) error {
	if len(outs) != b.p.Batch {
		return fmt.Errorf("%d outputs for %d inputs", len(outs), b.p.Batch)
	}
	for k, out := range outs {
		if len(out) != b.outLen {
			return fmt.Errorf("output %d has %d values, want %d", k, len(out), b.outLen)
		}
		for j, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("output %d[%d] is %v", k, j, v)
			}
		}
	}
	n := int64(b.p.Batch)
	if st.MVMs != b.perInf.MVMs*n || st.ADCConversions != b.perInf.ADCConversions*n {
		return fmt.Errorf("call did %d MVMs / %d ADC conversions, want %d / %d",
			st.MVMs, st.ADCConversions, b.perInf.MVMs*n, b.perInf.ADCConversions*n)
	}
	return nil
}

// verifyBitExact re-runs the sampled inputs through the bit-serial crossbar
// pipeline and requires the fast path's stored outputs, `==` exactly.
func (b *inferBench) verifyBitExact(c *checks, outputs [][]float64, sample []int) {
	exact := b.opts
	exact.BitExact = true
	for _, i := range sample {
		out, _, err := b.eng.Run(b.input(i), exact)
		if err == nil {
			err = sameOutputs(outputs[i], out)
		}
		c.record(fmt.Sprintf("bit-exact check of input %d", i), err)
	}
}

// sameOutputs requires got == want element by element.
func sameOutputs(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for j := range want {
		if want[j] != got[j] {
			return fmt.Errorf("output[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	return nil
}

func runInfer(rc runConfig, p inferParams) (*outcome, error) {
	m, err := dnn.ByName(p.Model)
	if err != nil {
		return nil, err
	}
	o := newOutcome(p)
	b := &inferBench{m: m, p: p, seed: rc.seed, opts: sim.InferenceOptions{Seed: subSeed(rc.seed, weightsID)}}
	var setups []float64
	var setupBefore, setupAfter map[string]int64
	for range p.SetupReps {
		b.eng = nil
		runtime.GC() // drop the previous engine so set-ups do not stack
		setupBefore = counters()
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		setupAfter = counters()
		setups = append(setups, d.Seconds())
	}

	var outputs [][]float64
	var calls []time.Duration
	var busy time.Duration
	mem := startMemPhase()
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < rc.phase(); c++ {
		ins := b.call(c)
		t := time.Now()
		outs, st, err := b.eng.RunBatch(ins, b.opts)
		d := time.Since(t)
		if err == nil {
			err = b.checkCall(outs, st)
		}
		if !o.checks.record(fmt.Sprintf("call %d", c), err) {
			outs = make([][]float64, p.Batch)
		}
		// An output shares its backing array with the layer activations it
		// was computed in place of; keeping only the values keeps that
		// memory out of heap_live_mb.
		for _, out := range outs {
			outputs = append(outputs, slices.Clone(out))
		}
		calls = append(calls, d)
		busy += d
	}
	mem.end(o.layers, len(calls))
	recordMemory(o, liveHeapMB())
	rate := float64(len(outputs)) / busy.Seconds()
	lat := durationsMS(calls)
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput_per_s"] = rate
	o.e2e["latency_ms_p50"] = quantile(lat, 0.5)
	o.e2e["latency_ms_p90"] = quantile(lat, 0.9)
	o.head("setup_s", o.e2e["setup_s"], "s")
	o.head("infer_per_s", rate, "inferences/s")
	o.head("infer_ms_p50", o.e2e["latency_ms_p50"], "ms/call")
	o.head("infer_ms_p90", o.e2e["latency_ms_p90"], "ms/call")

	rng := rand.New(rand.NewSource(subSeed(rc.seed, weightsID+1)))
	sample := rng.Perm(len(outputs))[:min(p.CheckSample, len(outputs))]
	b.verifyBitExact(&o.checks, outputs, sample)

	if rc.trace {
		o.layers["sim.weight_quantize_s"] = stageSeconds(setupBefore, setupAfter, simStages, "weight_quantize")
		o.layers["sim.pack_s"] = stageSeconds(setupBefore, setupAfter, simStages, "pack")
		if err := traceInfer(rc, b, outputs, rate, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceInfer reruns the first TracedCalls calls under the tracer, reads
// the engine's stage counters over them, and replays call 0 layer by layer.
func traceInfer(rc runConfig, b *inferBench, untraced [][]float64, rate float64, o *outcome) error {
	p := b.p
	tr, err := startTrace(rc.traceDir)
	if err != nil {
		return err
	}
	before := counters()
	var total sim.InferenceStats
	var busy time.Duration
	var first [][]float64
	for c := range p.TracedCalls {
		ins := b.call(c)
		t := time.Now()
		outs, st, err := b.eng.RunBatch(ins, b.opts)
		end := time.Now()
		tr.add("sim.RunBatch", 0, c, t, end)
		busy += end.Sub(t)
		if err == nil {
			err = b.checkCall(outs, st)
		}
		for k := 0; err == nil && k < len(outs) && c*p.Batch+k < len(untraced); k++ {
			err = sameOutputs(untraced[c*p.Batch+k], outs[k])
		}
		o.checks.record(fmt.Sprintf("traced call %d", c), err)
		if c == 0 {
			first = outs
		}
		total.MVMs += st.MVMs
		total.ADCConversions += st.ADCConversions
		total.KernelBatches += st.KernelBatches
	}
	after := counters()
	outs, rt := replay(b.plan, b.opts.Seed, b.call(0), tr)
	if err := tr.stop(); err != nil {
		return err
	}
	var errs []error
	if len(first) != len(outs) {
		errs = append(errs, fmt.Errorf("replay gave %d outputs, engine %d", len(outs), len(first)))
	} else {
		for k := range first {
			errs = append(errs, sameOutputs(first[k], outs[k]))
		}
	}
	// A replay that disagrees with the engine measured something else: its
	// layer split is dropped (left at 0) and the mismatch counts as failed.
	if o.checks.record("layer-by-layer replay of call 0", errs...) {
		rt.record(o.layers, float64(p.Batch))
	}

	l := o.layers
	n := float64(p.TracedCalls * p.Batch)
	l["bench.trace_overhead_frac"] = 1 - ratio(n/busy.Seconds(), rate)
	l["sim.run_s"] = busy.Seconds() / n
	l["sim.patch_stream_s"] = stageSeconds(before, after, simStages, "patch_stream") / n
	l["sim.input_pack_s"] = stageSeconds(before, after, simStages, "input_pack") / n
	l["sim.kernel_s"] = stageSeconds(before, after, simStages, "kernel") / n
	l["sim.mvms"] = float64(total.MVMs) / n
	l["sim.kernel_batches"] = float64(total.KernelBatches) / n
	l["sim.mean_kernel_batch"] = ratio(float64(total.MVMs), float64(total.KernelBatches))
	l["sim.adc_conversions"] = float64(total.ADCConversions) / n
	hits := float64(counterDelta(before, after, weightHit))
	l["sim.weights_cache_hit_ratio"] = ratio(hits, hits+float64(counterDelta(before, after, weightMis)))
	return nil
}
