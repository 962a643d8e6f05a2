package sim

import (
	"fmt"
	"math"
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/obs"
	"autohet/internal/quant"
	"autohet/internal/xbar"
)

// A warm fast Run must bill time to every stage of the split breakdown —
// the per-chunk im2col, act_quantize, kernel and scatter steps and the
// per-layer pool step — and input_pack must stay exactly im2col +
// act_quantize, the meaning it had before the split.
func TestEngineStagesBilled(t *testing.T) {
	eng := NewEngine(parallelCNN(t))
	input := dnn.SyntheticTensor(3, 16, 16, 4)
	opts := InferenceOptions{Seed: 2}
	if _, _, err := eng.Run(input, opts); err != nil { // warm
		t.Fatal(err)
	}
	stage := func(name string) string { return fmt.Sprintf("autohet_sim_stage_ns_total{stage=%q}", name) }
	before := obs.Default.JSON().Counters
	if _, _, err := eng.Run(input, opts); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.JSON().Counters
	delta := func(name string) int64 { return after[stage(name)] - before[stage(name)] }
	for _, name := range []string{"im2col", "act_quantize", "kernel", "scatter", "pool", "input_pack", "patch_stream"} {
		if delta(name) <= 0 {
			t.Errorf("stage %s billed %d ns over a warm Run, want > 0", name, delta(name))
		}
	}
	if ip, parts := delta("input_pack"), delta("im2col")+delta("act_quantize"); ip != parts {
		t.Errorf("input_pack billed %d ns, im2col + act_quantize %d ns", ip, parts)
	}
}

// The fast kernels overwrite every output element, which is why applyBatch
// clears out only for the accumulating bit-serial and aggregate modes: each
// fast kernel (blocked, pair, scalar) must give the same result into a
// NaN-poisoned buffer as into a zeroed one — at B=1 too, where the blocked
// kernel's row-gather path accumulates in out's own memory.
func TestFastApplyBatchOverwritesOut(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	l := p.Model.Mappable()[0]
	patchLen := l.UnfoldedRows()
	eng := NewEngine(p)
	le, err := eng.prepareLayer(l, InferenceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.getScratch()
	defer eng.putScratch(s)
	kernels := []struct {
		name string
		bw   *quant.BlockedMatrix
		pw   *quant.PairMatrix
	}{{"blocked", le.bw, nil}, {"pair", nil, le.w.Pairs()}, {"scalar", nil, nil}}
	for _, B := range []int{1, 8} {
		flat := s.flatFor(B * patchLen)
		for k := 0; k < B; k++ {
			copy(flat[k*patchLen:(k+1)*patchLen], dnn.SyntheticInput(l, int64(k)))
		}
		s.pb = quant.QuantizeBatchFlatCodesInto(s.pb, flat, patchLen, B)
		var want []float64
		for _, kn := range kernels {
			if kn.name == "blocked" && kn.bw == nil {
				continue // no AVX2 on this CPU
			}
			le.bw, le.pw = kn.bw, kn.pw
			var stats InferenceStats
			zeroed := make([]float64, B*le.w.Cols)
			le.applyBatch(s, zeroed, &stats)
			poisoned := make([]float64, B*le.w.Cols)
			for i := range poisoned {
				poisoned[i] = math.NaN()
			}
			le.applyBatch(s, poisoned, &stats)
			if want == nil {
				want = zeroed
			}
			name := fmt.Sprintf("%s B=%d", kn.name, B)
			eqF64(t, name+" zeroed", zeroed, want)
			eqF64(t, name+" poisoned", poisoned, want)
		}
	}
}

// autohet_sim_kernel_weight_bytes_total counts the int8 weight bytes the
// fast kernels stream, once per kernel batch: for one member only the rows
// a non-zero code multiplies, for a larger batch the whole matrix once.
// The bit-serial paths bill nothing to it.
func TestKernelWeightBytesCounter(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 128, xbar.Square(64))
	l := p.Model.Mappable()[0]
	rows := l.UnfoldedRows()
	eng := NewEngine(p)
	s := eng.getScratch()
	defer eng.putScratch(s)
	const name = "autohet_sim_kernel_weight_bytes_total"
	// Every third activation is 0 and the rest share the maximum, so the
	// codes are exactly 0 and 255 and rows/3 rows have a non-zero code.
	const B = 4
	flat := s.flatFor(B * rows)
	nonZero := 0
	for i := range flat {
		if i%3 != 0 {
			flat[i] = 1.5
			if i < rows {
				nonZero++
			}
		}
	}
	for _, tc := range []struct {
		opts InferenceOptions
		b    int
		want int
	}{
		{InferenceOptions{Seed: 1}, 1, nonZero * 128},
		{InferenceOptions{Seed: 1}, B, rows * 128},
		{InferenceOptions{Seed: 1, BitExact: true}, 1, 0},
	} {
		le, err := eng.prepareLayer(l, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		s.pb = le.quantizeBatch(s.pb, flat[:tc.b*rows], rows, tc.b)
		before := obs.Default.JSON().Counters[name]
		var stats InferenceStats
		le.applyBatch(s, s.outFor(tc.b*le.w.Cols), &stats)
		if got := obs.Default.JSON().Counters[name] - before; got != int64(tc.want) {
			t.Errorf("BitExact=%v B=%d: %d weight bytes billed, want %d", tc.opts.BitExact, tc.b, got, tc.want)
		}
	}
}
