package sim

import (
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/quant"
	"autohet/internal/repair"
	"autohet/internal/xbar"
)

// The batched grid kernel must be bit-identical, member for member, to B
// independent single-vector ExecuteMVM calls — for every mapping geometry
// and weight width — and its ExecStats must be exactly B times the
// single-vector (= analytic) stats.
func TestExecuteMVMBatchMatchesSingle(t *testing.T) {
	const B = 5
	for _, c := range mvmShapeCases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		l := la.Layer
		ins := make([]*quant.Input, B)
		for k := range ins {
			ins[k] = quant.QuantizeInput(dnn.SyntheticInput(l, int64(12+k)))
		}
		pb := quant.PackInputs(ins)
		for _, bits := range []int{1, 4, 8} {
			w := quant.QuantizeWeightsN(dnn.SyntheticWeights(l, 11), bits)
			got, gotStats, err := ExecuteMVMBatch(cfg(), la, w, pb)
			if err != nil {
				t.Fatalf("%v bits=%d: %v", c, bits, err)
			}
			var sum ExecStats
			for k, in := range ins {
				want, wantStats, err := ExecuteMVM(cfg(), la, w, in)
				if err != nil {
					t.Fatalf("%v bits=%d member %d: %v", c, bits, k, err)
				}
				eqF64(t, "batched member", got[k*w.Cols:(k+1)*w.Cols], want)
				sum.Crossbars += wantStats.Crossbars
				sum.ADCConversions += wantStats.ADCConversions
				sum.DACConversions += wantStats.DACConversions
			}
			if gotStats != sum {
				t.Fatalf("%v bits=%d: batched stats %+v, B× single %+v", c, bits, gotStats, sum)
			}
		}
	}
}

// runScalarRef replays the engine one MVM at a time — one single-member
// applyBatch per sliding window, sequentially, with ReLU applied as a
// separate pass — as the oracle for the chunked, parallel engine and its
// fused dequantize-ReLU scatter.
func runScalarRef(t *testing.T, e *Engine, input *dnn.Tensor, opts InferenceOptions) ([]float64, InferenceStats) {
	t.Helper()
	m := e.p.Model
	var stats InferenceStats
	mappables := m.Mappable()
	last := mappables[len(mappables)-1]
	cur := input
	var flat []float64
	s := &batchScratch{pb: &quant.PackedBatch{}}
	// mvm runs one input vector x through le and returns its dequantized
	// outputs (valid until the next call).
	mvm := func(le *layerExec, x []float64) []float64 {
		s.pb = le.quantizeBatch(s.pb, x, len(x), 1)
		out := s.outFor(le.w.Cols)
		le.applyBatch(s, out, &stats)
		for j, v := range out {
			out[j] = le.emit(j, s.pb.Scales[0], v, false)
		}
		return out
	}
	for _, l := range m.Layers {
		switch l.Kind {
		case dnn.Conv:
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := dnn.NewTensor(l.OutC, l.OutH, l.OutW)
			patch := make([]float64, cur.C*l.K*l.K)
			for idx := 0; idx < l.OutH*l.OutW; idx++ {
				oy, ox := idx/l.OutW, idx%l.OutW
				for c, v := range mvm(le, cur.PatchInto(patch, l, oy, ox)) {
					out.Set(c, oy, ox, v)
				}
			}
			cur = out
			if l != last {
				dnn.ReLU(cur.Data)
			}
		case dnn.Pool:
			cur = dnn.PoolMaxRef(l, cur)
		case dnn.FC:
			if flat == nil {
				flat = cur.Flatten()
			}
			le, err := e.prepareLayer(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			flat = append(flat[:0:0], mvm(le, flat)...)
			if l != last {
				dnn.ReLU(flat)
			}
		}
	}
	if flat == nil {
		flat = cur.Flatten()
	}
	return flat, stats
}

// batchedOptSets covers every kernel mode: fast integer, bit-exact,
// aggregate-noise faulted, bit-exact noisy, per-column scales, and the
// repaired fast + bit-exact paths.
func batchedOptSets() []InferenceOptions {
	stuck := &fault.Model{Seed: 3, StuckAtZero: 0.01, StuckAtOne: 0.005, ReadNoiseSigma: 0.2}
	return []InferenceOptions{
		{Seed: 2},
		{Seed: 2, BitExact: true},
		{Seed: 2, PerColumnScales: true, BitExact: true},
		{Seed: 2, Faults: stuck},
		{Seed: 2, BitExact: true, Faults: stuck},
		{Seed: 2, Faults: stuck, Repair: &repair.Policy{}},
		{Seed: 2, BitExact: true, Faults: stuck, Repair: &repair.Policy{}},
	}
}

// The batched engine must reproduce the scalar per-patch engine bit-exactly
// — outputs and MVM/ADC accounting — for every kernel mode (including the
// faulted, noisy, and repaired paths) and every kernel batch size.
func TestEngineBatchedMatchesScalarReference(t *testing.T) {
	p := parallelCNN(t)
	input := dnn.SyntheticTensor(3, 16, 16, 4)
	for _, opts := range batchedOptSets() {
		eng := NewEngine(p)
		want, wantStats := runScalarRef(t, eng, input, opts)
		for _, kb := range []int{1, 8, 32, 0} {
			opts.KernelBatch = kb
			got, gotStats, err := eng.Run(input, opts)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			eqF64(t, "batched vs scalar", got, want)
			if gotStats.MVMs != wantStats.MVMs || gotStats.ADCConversions != wantStats.ADCConversions {
				t.Fatalf("%+v: batched stats %+v, scalar %+v", opts, gotStats, wantStats)
			}
			if gotStats.KernelBatches == 0 || gotStats.MaxKernelBatch < 1 {
				t.Fatalf("%+v: no kernel batches recorded: %+v", opts, gotStats)
			}
			if kb > 0 && gotStats.MaxKernelBatch > kb {
				t.Fatalf("%+v: kernel batch %d exceeds cap %d", opts, gotStats.MaxKernelBatch, kb)
			}
		}
	}
}

// RunBatch of N inputs must equal N independent Runs, member for member,
// with additive MVM/ADC stats — members of a batch never mix.
func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	p := parallelCNN(t)
	inputs := []*dnn.Tensor{
		dnn.SyntheticTensor(3, 16, 16, 4),
		dnn.SyntheticTensor(3, 16, 16, 5),
		dnn.SyntheticTensor(3, 16, 16, 6),
	}
	for _, opts := range batchedOptSets() {
		eng := NewEngine(p)
		outs, batchStats, err := eng.RunBatch(inputs, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(outs) != len(inputs) {
			t.Fatalf("%+v: %d outputs for %d inputs", opts, len(outs), len(inputs))
		}
		var sum InferenceStats
		for i, input := range inputs {
			want, stats, err := eng.Run(input, opts)
			if err != nil {
				t.Fatalf("%+v input %d: %v", opts, i, err)
			}
			eqF64(t, "batch member", outs[i], want)
			sum.MVMs += stats.MVMs
			sum.ADCConversions += stats.ADCConversions
		}
		if batchStats.MVMs != sum.MVMs || batchStats.ADCConversions != sum.ADCConversions {
			t.Fatalf("%+v: batch stats %+v, sum of singles %+v", opts, batchStats, sum)
		}
	}
}

// With warm scratch, a whole kernel batch — patch slab fill, batch
// quantize/pack, batched kernel, dequantize — allocates nothing on the fast
// and bit-exact paths. This is the per-patch-allocation invariant behind
// allocs_per_patch in BENCH_mvm.json, asserted at batch granularity; the
// one-member case is TestApplyZeroAllocsWarm.
func TestApplyBatchZeroAllocsWarm(t *testing.T) {
	assertWarmBatchAllocsZero(t, 32, 0)
}

// assertWarmBatchAllocsZero fills a B-member kernel batch of a 3x3 conv
// layer with synthetic patches seeded from seed0 upwards, warms the scratch
// once, and fails unless re-running quantize/pack plus applyBatch allocates
// nothing on both the fast and the bit-exact path.
func assertWarmBatchAllocsZero(t *testing.T, B int, seed0 int64) {
	t.Helper()
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	l := p.Model.Mappable()[0]
	patchLen := l.UnfoldedRows()
	eng := NewEngine(p)
	for _, opts := range []InferenceOptions{{Seed: 1}, {Seed: 1, BitExact: true}} {
		le, err := eng.prepareLayer(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.getScratch()
		flat := s.flatFor(B * patchLen)
		for k := 0; k < B; k++ {
			copy(flat[k*patchLen:(k+1)*patchLen], dnn.SyntheticInput(l, seed0+int64(k)))
		}
		var stats InferenceStats
		run := func() {
			s.pb = quant.QuantizeBatchFlatInto(s.pb, s.flatFor(B*patchLen), patchLen, B)
			out := s.outFor(B * le.w.Cols)
			le.applyBatch(s, out, &stats)
		}
		run() // warm the buffers
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("B=%d BitExact=%v: %v allocs per warm kernel batch, want 0", B, opts.BitExact, allocs)
		}
		eng.putScratch(s)
	}
}
