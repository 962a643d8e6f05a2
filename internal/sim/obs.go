package sim

import "autohet/internal/obs"

// Engine instrumentation on the shared obs registry. All hooks are at
// per-layer (not per-patch) granularity: cache lookups and stage timings
// happen once per layer per inference, so the warm MVM inner loop stays
// untouched and allocation-free. Stage counters accumulate nanoseconds;
// cache counters record hits and misses per memo.
var (
	simStageQuantize = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="weight_quantize"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStagePack = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="pack"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageFault = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="fault_compose"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageRepair = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="repair"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageStream = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="patch_stream"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageInputPack = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="input_pack"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageKernel = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="kernel"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	// input_pack's two parts, and the steps after the kernel; billed once
	// per kernel batch (pool once per layer).
	simStageIm2col = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="im2col"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageActQuantize = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="act_quantize"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStageScatter = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="scatter"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")
	simStagePool = obs.Default.Counter(`autohet_sim_stage_ns_total{stage="pool"}`,
		"Cumulative sim.Engine stage time in nanoseconds.")

	simWeightsHit = obs.Default.Counter(`autohet_sim_cache_events_total{cache="weights",event="hit"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")
	simWeightsMiss = obs.Default.Counter(`autohet_sim_cache_events_total{cache="weights",event="miss"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")
	simFaultedHit = obs.Default.Counter(`autohet_sim_cache_events_total{cache="faulted",event="hit"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")
	simFaultedMiss = obs.Default.Counter(`autohet_sim_cache_events_total{cache="faulted",event="miss"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")
	simRepairedHit = obs.Default.Counter(`autohet_sim_cache_events_total{cache="repaired",event="hit"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")
	simRepairedMiss = obs.Default.Counter(`autohet_sim_cache_events_total{cache="repaired",event="miss"}`,
		"sim.Engine per-layer memo lookups by cache and outcome.")

	// Billed once per fast-mode kernel batch (fastWeightBytes).
	simKernelWeightBytes = obs.Default.Counter("autohet_sim_kernel_weight_bytes_total",
		"Int8 weight bytes streamed by sim.Engine's fast kernels: non-zero-code rows x cols for a one-member batch, rows x cols for a larger one.")

	simInferences = obs.Default.Counter("autohet_sim_inferences_total",
		"Functional inferences served by sim.Engine (including RunInference wrappers).")
)
