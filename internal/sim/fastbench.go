package sim

import (
	"autohet/internal/quant"
)

// FastKernels exposes the engine's two fast-path MVM pipelines for one
// weight matrix as standalone calls, for benchmarks and cross-checks.
//
// Single is the unbatched per-patch pipeline — layerExec.apply's modeFast
// arm: per-patch quantization (including the bit-serial digit slab the
// single-vector path packs) followed by the single-vector integer kernel.
// This was the serving engine's only fast path before kernel batching, so
// it is the baseline batched legs are compared against.
//
// Batch is the batched pipeline — layerExec.applyBatch's modeFast arm:
// one-pass codes-only batch quantization followed by the blocked/pair/
// scalar batched kernel hierarchy, with the same dispatch rules the engine
// uses.
//
// Both return dequantized outputs bit-identical to the bit-serial crossbar
// reference followed by the engine's dequantization (asserted in tests and
// by the benchmark legs before timing). Scratch is reused across calls, so
// warm calls allocate nothing; a FastKernels is not safe for concurrent
// use.
type FastKernels struct {
	w  *quant.Matrix
	bw *quant.BlockedMatrix
	pw *quant.PairMatrix
	ss mvmScratch
	bs batchScratch
}

// NewFastKernels prepares the fast pipelines for w, building the same
// kernel representations the engine's prepareLayer builds.
func NewFastKernels(w *quant.Matrix) *FastKernels {
	return &FastKernels{w: w, bw: w.Blocked(), pw: w.Pairs()}
}

// Single runs one patch through the unbatched per-patch pipeline and
// returns its dequantized outputs (valid until the next call).
func (fk *FastKernels) Single(patch []float64) []float64 {
	in := quant.QuantizeInputInto(fk.ss.in, patch)
	fk.ss.in = in
	out := fk.ss.outFor(fk.w.Cols)
	integerMVMInto(out, fk.ss.accFor(fk.w.Cols), fk.w, in.U)
	for j := range out {
		out[j] = fk.w.ScaleFor(j) * in.Scale * out[j]
	}
	return out
}

// Batch runs b member-major patches of length n (flat, like the engine's
// patch slab) through the batched pipeline and returns member-major
// dequantized outputs (valid until the next call).
func (fk *FastKernels) Batch(flat []float64, n, b int) []float64 {
	pb := quant.QuantizeBatchFlatCodesInto(fk.bs.pb, flat, n, b)
	fk.bs.pb = pb
	cols := fk.w.Cols
	out := fk.bs.outFor(b * cols)
	switch { // every kernel overwrites out
	case fk.bw != nil:
		// Signed product directly — no offset correction term.
		fk.bw.MulBatch(pb, out, fk.bs.u16For(b*pb.N))
	case fk.pw != nil && b >= pairMinBatch:
		fk.pw.MulBatchFloat(pb, out, fk.bs.paccFor(b*fk.pw.Pairs))
		applyCorrectionBatch(out, fk.w, pb)
	default:
		integerMVMBatch(out, fk.bs.accFor(max(cols, b)), fk.w, pb)
	}
	for k := 0; k < b; k++ {
		f := pb.Scales[k]
		o := out[k*cols : (k+1)*cols]
		for j := range o {
			o[j] = fk.w.ScaleFor(j) * f * o[j]
		}
	}
	return out
}
