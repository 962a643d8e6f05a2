package quant

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix builds a deterministic quantized matrix for kernel tests.
func randMatrix(rng *rand.Rand, rows, cols, bits int) *Matrix {
	off := 1 << (bits - 1)
	m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(2*off) - off)
	}
	return m
}

// TestQuantizeBatchMatchesQuantizeInput: batch quantization must reproduce
// QuantizeInput member for member — same scales, same codes, same digit
// words — since bit-exactness of the batched engine rests on it.
func TestQuantizeBatchMatchesQuantizeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, b = 130, 5 // two full words + ragged tail
	xs := make([][]float64, b)
	flat := make([]float64, n*b)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			v := rng.Float64()*20 - 2 // include negatives (clamped to 0)
			xs[k][i] = v
			flat[k*n+i] = v
		}
	}
	xs[2] = make([]float64, n) // all-zero member: scale falls back to 1
	copy(flat[2*n:3*n], xs[2])

	for name, pb := range map[string]*PackedBatch{
		"slices": QuantizeBatchInto(nil, xs),
		"flat":   QuantizeBatchFlatInto(nil, flat, n, b),
	} {
		if pb.N != n || pb.B != b || pb.Words != (n+63)/64 {
			t.Fatalf("%s: batch shape %dx%d (%d words)", name, pb.N, pb.B, pb.Words)
		}
		for k := 0; k < b; k++ {
			want := QuantizeInput(xs[k])
			if pb.Scales[k] != want.Scale {
				t.Fatalf("%s member %d: scale %v, want %v", name, k, pb.Scales[k], want.Scale)
			}
			u := pb.Member(k)
			var usum float64
			for i := range u {
				if u[i] != want.U[i] {
					t.Fatalf("%s member %d row %d: code %d, want %d", name, k, i, u[i], want.U[i])
				}
				usum += float64(u[i])
			}
			if pb.USums[k] != usum {
				t.Fatalf("%s member %d: usum %v, want %v", name, k, pb.USums[k], usum)
			}
			for bit := 0; bit < InputBits; bit++ {
				for w := 0; w < pb.Words; w++ {
					if got := pb.DigitWord(w, k, bit); got != want.DigitWords[bit][w] {
						t.Fatalf("%s member %d bit %d word %d: %#x, want %#x", name, k, bit, w, got, want.DigitWords[bit][w])
					}
				}
			}
		}
	}
}

// TestPackInputsRoundTrip: packing pre-quantized Inputs preserves codes,
// scales, and digit words exactly.
func TestPackInputsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, b = 70, 3
	ins := make([]*Input, b)
	for k := range ins {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 9
		}
		ins[k] = QuantizeInput(x)
	}
	pb := PackInputs(ins)
	for k, in := range ins {
		if pb.Scales[k] != in.Scale {
			t.Fatalf("member %d: scale %v, want %v", k, pb.Scales[k], in.Scale)
		}
		for bit := 0; bit < InputBits; bit++ {
			for w := 0; w < pb.Words; w++ {
				if got := pb.DigitWord(w, k, bit); got != in.DigitWords[bit][w] {
					t.Fatalf("member %d bit %d word %d: %#x, want %#x", k, bit, w, got, in.DigitWords[bit][w])
				}
			}
		}
	}
	// Reuse with a smaller batch must fully reset the slab.
	pb2 := PackInputsInto(pb, ins[:1])
	for bit := 0; bit < InputBits; bit++ {
		for w := 0; w < pb2.Words; w++ {
			if got := pb2.DigitWord(w, 0, bit); got != ins[0].DigitWords[bit][w] {
				t.Fatalf("reused batch bit %d word %d: %#x, want %#x", bit, w, got, ins[0].DigitWords[bit][w])
			}
		}
	}
}

// TestBatchedKernelsMatchSingleVector: ColSumCycles / ColRangeSumCycles /
// ColRangeSumBatch / MulBatch against the single-vector ColSum and
// ColRangeSum kernels, over ragged shapes and row bands.
func TestBatchedKernelsMatchSingleVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ rows, cols, bits, b int }{
		{5, 3, 8, 1},
		{64, 4, 8, 7},
		{70, 2, 4, 8},
		{200, 6, 1, 3},
		{129, 5, 8, 32},
	} {
		m := randMatrix(rng, tc.rows, tc.cols, tc.bits)
		pm := m.Packed()
		ins := make([]*Input, tc.b)
		for k := range ins {
			x := make([]float64, tc.rows)
			for i := range x {
				x[i] = rng.Float64() * 100
			}
			ins[k] = QuantizeInput(x)
		}
		pb := PackInputs(ins)

		split := tc.rows / 3
		acc := make([]int64, tc.b)
		sums := make([]int64, tc.b)
		for j := 0; j < tc.cols; j++ {
			for _, p := range pm.Planes {
				// Full-height fused sweep == Σ_b ColSum << b per member.
				clear(acc)
				p.ColSumCycles(j, pb, acc)
				for k, in := range ins {
					var want int64
					for b := 0; b < InputBits; b++ {
						want += int64(p.ColSum(j, in.DigitWords[b])) << uint(b)
					}
					if acc[k] != want {
						t.Fatalf("%dx%d/%d-bit B=%d: ColSumCycles col %d plane %d member %d: %d, want %d",
							tc.rows, tc.cols, tc.bits, tc.b, j, p.Bit, k, acc[k], want)
					}
				}
				// Band-split fused sweep sums to the full-height sweep.
				clear(sums)
				p.ColRangeSumCycles(j, 0, split, pb, sums)
				p.ColRangeSumCycles(j, split, tc.rows, pb, sums)
				for k := range sums {
					if sums[k] != acc[k] {
						t.Fatalf("col %d plane %d member %d: band split %d, full %d", j, p.Bit, k, sums[k], acc[k])
					}
				}
				// Per-cycle band reads match ColRangeSum member for member.
				for b := 0; b < InputBits; b++ {
					p.ColRangeSumBatch(j, split, tc.rows, b, pb, sums)
					for k, in := range ins {
						if want := int64(p.ColRangeSum(j, split, tc.rows, in.DigitWords[b])); sums[k] != want {
							t.Fatalf("col %d plane %d bit %d member %d: %d, want %d", j, p.Bit, b, k, sums[k], want)
						}
					}
				}
			}
		}

		// MulBatch == integer reference per member.
		out := make([]int64, tc.b*tc.cols)
		pm.MulBatch(pb, out)
		off := int64(m.Offset())
		for k, in := range ins {
			for j := 0; j < tc.cols; j++ {
				var want int64
				for i := 0; i < tc.rows; i++ {
					want += (int64(m.Q[i*tc.cols+j]) + off) * int64(in.U[i])
				}
				if out[k*tc.cols+j] != want {
					t.Fatalf("%dx%d/%d-bit B=%d: MulBatch member %d col %d: %d, want %d",
						tc.rows, tc.cols, tc.bits, tc.b, k, j, out[k*tc.cols+j], want)
				}
			}
		}
	}
}

// TestQuantizeBatchFlatZeroAllocs: warm batch quantization must not
// allocate — the per-patch Input construction the batched engine lifted
// out of the inner loop must not creep back in.
func TestQuantizeBatchFlatZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, b = 363, 32
	flat := make([]float64, n*b)
	for i := range flat {
		flat[i] = rng.Float64() * 5
	}
	pb := QuantizeBatchFlatInto(nil, flat, n, b)
	avg := testing.AllocsPerRun(50, func() {
		pb = QuantizeBatchFlatInto(pb, flat, n, b)
	})
	if avg != 0 {
		t.Fatalf("warm QuantizeBatchFlatInto allocates %.2f times per call, want 0", avg)
	}
}

// quantizeMemberRound is the batch quantizer as first written — math.Round
// on the exact ratio, codes summed in float — kept as the reference the
// trunc-and-compare rounding must reproduce bit for bit.
func quantizeMemberRound(x []float64) (codes []uint8, scale, usum float64) {
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	scale = maxV / float64((1<<InputBits)-1)
	if scale == 0 {
		scale = 1
	}
	codes = make([]uint8, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		r := math.Round(v / scale)
		if r > 255 {
			r = 255
		}
		codes[i] = uint8(r)
		usum += r
	}
	return codes, scale, usum
}

// TestQuantizeBatchRoundingExact pins the batch quantizer's codes, Scales
// and USums to the math.Round reference on the inputs where a rounding
// shortcut goes wrong: every exact .5 tie from 0.5 to 254.5 and both
// math.Nextafter neighbours (scale 1, so r = v), ratios at and past 255.5
// (a subnormal max whose scale rounds down), −0, negatives, an all-zero
// member, NaN and ±Inf.
func TestQuantizeBatchRoundingExact(t *testing.T) {
	var ties []float64
	for k := 0; k < 255; k++ {
		h := float64(k) + 0.5
		ties = append(ties, h, math.Nextafter(h, 0), math.Nextafter(h, 256))
	}
	ties = append(ties, 255) // the max: scale = 255/255 = 1
	n := len(ties)
	rng := rand.New(rand.NewSource(11))
	member := func(fill func(i int) float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = fill(i)
		}
		return x
	}
	// 637 subnormal units scale to ⌊637/255⌉ = 2 units, so r runs to 318.5
	// and hits 254.5, 255, 255.5 and 256 exactly.
	unit := math.SmallestNonzeroFloat64
	sub := []float64{637, 511, 510, 509, 1, 0}
	members := [][]float64{
		ties,
		member(func(i int) float64 {
			if i < len(sub) {
				return sub[i] * unit
			}
			return float64(rng.Intn(638)) * unit
		}),
		member(func(i int) float64 {
			switch i % 4 {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return -rng.Float64() * 3
			}
			return rng.Float64() * 3
		}),
		make([]float64, n), // all zero: scale falls back to 1
		member(func(i int) float64 {
			if i%7 == 3 {
				return math.NaN()
			}
			return rng.Float64() * 9
		}),
		member(func(i int) float64 {
			if i == 5 {
				return math.Inf(1)
			}
			return rng.Float64()
		}),
		member(func(i int) float64 {
			if i%2 == 0 {
				return math.Inf(-1)
			}
			return rng.Float64() * 40
		}),
		member(func(int) float64 { return rng.Float64() * 17.3 }),
	}
	b := len(members)
	flat := make([]float64, 0, n*b)
	for _, x := range members {
		flat = append(flat, x...)
	}
	for name, pb := range map[string]*PackedBatch{
		"codes":  QuantizeBatchFlatCodesInto(nil, flat, n, b),
		"digits": QuantizeBatchFlatInto(nil, flat, n, b),
		"slices": QuantizeBatchInto(nil, members),
	} {
		for k, x := range members {
			codes, scale, usum := quantizeMemberRound(x)
			if pb.Scales[k] != scale {
				t.Fatalf("%s member %d: scale %v, want %v", name, k, pb.Scales[k], scale)
			}
			if got := pb.USums[k]; got != usum && !(math.IsNaN(got) && math.IsNaN(usum)) {
				t.Fatalf("%s member %d: usum %v, want %v", name, k, got, usum)
			}
			for i, c := range pb.Member(k) {
				if c != codes[i] {
					t.Fatalf("%s member %d row %d (x=%v, r=%v): code %d, want %d",
						name, k, i, x[i], x[i]/scale, c, codes[i])
				}
			}
		}
	}
}
