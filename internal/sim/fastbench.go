package sim

import (
	"autohet/internal/quant"
)

// FastKernels exposes the engine's fast-path MVM pipeline for one weight
// matrix as a standalone call, for benchmarks and cross-checks. Batch is
// layerExec.applyBatch's modeFast arm: one-pass codes-only batch
// quantization followed by the blocked/pair/scalar batched kernel
// hierarchy, with the same dispatch rules the engine uses. At b = 1 the
// blocked kernel is the row-gather path, the one FC layers of a
// one-input call run.
//
// Its dequantized outputs are bit-identical to the bit-serial crossbar
// reference followed by the engine's dequantization (asserted in tests and
// by the benchmark legs before timing). Scratch is reused across calls, so
// warm calls allocate nothing; a FastKernels is not safe for concurrent
// use.
type FastKernels struct {
	w  *quant.Matrix
	bw *quant.BlockedMatrix
	pw *quant.PairMatrix
	bs batchScratch
}

// NewFastKernels prepares the fast pipeline for w, building the same
// kernel representations the engine's prepareLayer builds: the blocked
// packing, or the pair packing where the blocked kernel is unavailable.
func NewFastKernels(w *quant.Matrix) *FastKernels {
	fk := &FastKernels{w: w, bw: w.Blocked()}
	if fk.bw == nil {
		fk.pw = w.Pairs()
	}
	return fk
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
