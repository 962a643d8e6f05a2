package quant

import (
	"fmt"
	"unsafe"

	"autohet/internal/cpufeat"
)

// SIMD-blocked signed integer kernel — the widest fast path. Where
// PairMatrix packs two offset-binary codes per 64-bit multiply (2 MACs per
// IMUL), the blocked layout feeds an AVX2 VPMADDWD micro-kernel that
// performs 16 multiply-accumulates per instruction: weights are stored as
// signed int8 with two consecutive rows interleaved per 16-column block,
//
//	Data[blk][pair][2j+0] = q[2p][j0+j]    (j0 = 16·blk)
//	Data[blk][pair][2j+1] = q[2p+1][j0+j]
//
// so one VPMOVSXBW widens 16 bytes to 16 int16 lanes and one VPMADDWD
// against the broadcast pair (u[2p] | u[2p+1]<<16) adds q[2p][j]·u[2p] +
// q[2p+1][j]·u[2p+1] into 8 of 16 int32 column accumulators. Unlike the
// bit-plane and pair kernels, this computes the *signed* product Σ_i q_i·u_i
// directly — no offset-binary correction term — which is exactly the fast
// path's contract (integerMVMInto). Every intermediate is an exact integer,
// so the result is bit-identical to the scalar reference; equivalence is
// asserted by FuzzBlockedMVM (FuzzBatchedMVM stays below one block width)
// and the sim engine oracle tests.
//
// The kernel is gated at runtime: Blocked() returns nil unless the CPU
// reports AVX2 with OS-enabled YMM state (see cpufeat.AVX2), the row count
// fits the int32 accumulator bound, and the matrix is at least one block
// wide. Callers fall back to the pair or scalar kernels on nil.

// maxBlockedRows bounds the row count for which a 16-lane int32 accumulator
// cannot overflow: one row-pair VPMADDWD step contributes at most
// 2·128·255 = 65280 per lane (|q| ≤ 128, u ≤ 255), int32 absorbs
// ⌊(2³¹−1)/65280⌋ = 32895 such steps, and the odd tail row adds at most
// half of one more.
const maxBlockedRows = 2*((1<<31-1)/65280) + 1

// blockedColWidth is the column width of one kernel block: 16 int8 codes
// widen into sixteen 16-bit lanes of one YMM register.
const blockedColWidth = 16

// BlockedMatrix is the row-pair-interleaved signed int8 packing of a
// quantized weight matrix, consumed by the AVX2 maddBlock micro-kernel.
// The trailing Cols%16 columns and (for odd Rows) the last row are not
// blocked; MulBatch finishes them with scalar sweeps over q.
type BlockedMatrix struct {
	Rows, Cols int
	Blocks     int    // full 16-column blocks
	RowPairs   int    // ⌊Rows/2⌋ interleaved row pairs per block
	Data       []int8 // Blocks × RowPairs × 32 bytes, layout above
	q          []int8 // source row-major codes: the row/column tails and the B=1 row gather
}

// Blocked returns the matrix's SIMD-blocked packing, built once and
// memoized like Packed() and Pairs(). Returns nil when the running CPU
// lacks AVX2, when Rows exceeds maxBlockedRows, or when the matrix is
// narrower than one block; callers fall back to another kernel. Safe for
// concurrent use.
func (m *Matrix) Blocked() *BlockedMatrix {
	if !cpufeat.AVX2 || m.Rows > maxBlockedRows || m.Cols < blockedColWidth {
		return nil
	}
	m.memo.Lock()
	defer m.memo.Unlock()
	if m.memo.blocked == nil {
		m.memo.blocked = buildBlocked(m)
	}
	return m.memo.blocked
}

func buildBlocked(m *Matrix) *BlockedMatrix {
	nb := m.Cols / blockedColWidth
	rp := m.Rows / 2
	bm := &BlockedMatrix{
		Rows: m.Rows, Cols: m.Cols,
		Blocks: nb, RowPairs: rp,
		Data: make([]int8, nb*rp*2*blockedColWidth),
		q:    m.Q,
	}
	for bi := 0; bi < nb; bi++ {
		j0 := bi * blockedColWidth
		dst := bm.Data[bi*rp*2*blockedColWidth:]
		for p := 0; p < rp; p++ {
			r0 := m.Q[(2*p)*m.Cols+j0 : (2*p)*m.Cols+j0+blockedColWidth]
			r1 := m.Q[(2*p+1)*m.Cols+j0 : (2*p+1)*m.Cols+j0+blockedColWidth]
			d := dst[p*2*blockedColWidth : (p+1)*2*blockedColWidth]
			for j := 0; j < blockedColWidth; j++ {
				d[2*j] = r0[j]
				d[2*j+1] = r1[j]
			}
		}
	}
	return bm
}

// checkBlockedShapes validates pb/out/scratch agreement for one batched
// blocked MVM.
func (bm *BlockedMatrix) checkBlockedShapes(pb *PackedBatch, outLen, scratchLen int) {
	if pb.N != bm.Rows {
		panic(fmt.Sprintf("quant: batch of %d-row vectors against %dx%d blocked matrix", pb.N, bm.Rows, bm.Cols))
	}
	if outLen != pb.B*bm.Cols {
		panic(fmt.Sprintf("quant: batched output %d, want %dx%d", outLen, pb.B, bm.Cols))
	}
	if scratchLen < pb.B*pb.N {
		panic(fmt.Sprintf("quant: blocked scratch %d, want %dx%d", scratchLen, pb.B, pb.N))
	}
}

// MulBatch computes the batched signed MVM
//
//	out[k*Cols+j] = Σ_i q[i][j] · u_k[i]
//
// (note: no offset term — this is the fast path's signed contract, equal to
// the offset-binary kernels' result minus offset·Σu). out is member-major
// (length B·Cols) and every element is overwritten, so it need not arrive
// cleared; u16 is caller scratch of length ≥ B·N that holds the batch's
// input codes widened to the uint16 lanes VPMADDWD consumes (B ≥ 2 only).
// A single member runs the row-gather kernel (mulOne), which streams only
// the weight rows its non-zero codes multiply. Larger batches run the
// blocked kernel (mulBlocked), which streams every row once per batch.
// The trailing Cols%16 columns are a scalar sweep in both cases.
func (bm *BlockedMatrix) MulBatch(pb *PackedBatch, out []float64, u16 []uint16) {
	bm.checkBlockedShapes(pb, len(out), len(u16))
	if pb.B == 1 {
		bm.mulOne(pb.U, out)
	} else {
		bm.mulBlocked(pb, out, u16)
	}
	bm.mulTail(pb, out)
}

// mulOne computes the blocked columns of one member's product by row
// gather. A zero code contributes nothing — in the bit-serial pipeline it
// drives no DAC pulse — so only rows with a non-zero code are read,
// straight from the row-major q, four at a time through maddRowQuad. The
// last group is padded with zero-code repeats of one of its rows, so an
// odd leftover row pairs with itself at code 0. While one group streams,
// the kernel prefetches the next group's rows: each row is a fresh
// stream that the hardware prefetcher would only pick up after a few
// misses. Every product is an exact integer and every partial sum is a sum
// of at most Rows of them, each of magnitude ≤ 128·255, which the
// maxBlockedRows bound keeps inside int32; the sums therefore equal the
// blocked kernel's, whatever the order.
//
// out doubles as the int32 accumulator row: Blocks·16 int32s take the first
// half of the bytes of as many float64s. The conversion then runs from the
// last block down, so each block's floats overwrite only accumulators that
// are already converted, and it undoes the kernel's in-lane column order.
func (bm *BlockedMatrix) mulOne(u []uint8, out []float64) {
	cols, nb := bm.Cols, bm.Blocks
	acc := unsafe.Slice((*int32)(unsafe.Pointer(&out[0])), nb*blockedColWidth)
	clear(acc)
	row := func(i int) *int8 { return &bm.q[i*cols] }
	var cur, next rowGroup
	pos := cur.fill(u, 0)
	for cur.n > 0 {
		pos = next.fill(u, pos)
		pf := &next
		if next.n == 0 {
			pf = &cur
		}
		maddRowQuad(row(cur.rows[0]), row(cur.rows[1]), row(cur.rows[2]), row(cur.rows[3]),
			row(pf.rows[0]), row(pf.rows[1]), row(pf.rows[2]), row(pf.rows[3]),
			cur.codes[0]|cur.codes[1]<<16, cur.codes[2]|cur.codes[3]<<16, &acc[0], nb)
		cur = next
	}
	for bi := nb - 1; bi >= 0; bi-- {
		var a [blockedColWidth]int32
		copy(a[:], acc[bi*blockedColWidth:])
		o := out[bi*blockedColWidth : (bi+1)*blockedColWidth]
		for t := 0; t < 4; t++ {
			o[t] = float64(a[t])
			o[4+t] = float64(a[8+t])
			o[8+t] = float64(a[4+t])
			o[12+t] = float64(a[12+t])
		}
	}
}

// rowGroup is one maddRowQuad step of the row gather: n ≤ 4 rows with a
// non-zero code, padded to four with zero-code repeats of the first.
type rowGroup struct {
	rows  [4]int
	codes [4]uint32
	n     int
}

// fill loads g with the next rows with a non-zero code in u, scanning from
// position i, and returns the position after the last code it read.
func (g *rowGroup) fill(u []uint8, i int) int {
	g.n = 0
	for ; i < len(u) && g.n < 4; i++ {
		if c := u[i]; c != 0 {
			g.rows[g.n], g.codes[g.n] = i, uint32(c)
			g.n++
		}
	}
	for j := g.n; j < 4; j++ {
		g.rows[j], g.codes[j] = g.rows[0], 0
	}
	return i
}

// mulBlocked computes the blocked columns of a batch of two or more
// members. The weight block is the outer loop so each block's RowPairs×32
// bytes stay cache-resident while the member loop reuses them — the
// batched amortization mirrors the bit-plane and pair kernels. Members run
// in groups of four through maddBlock4, which widens each weight row pair
// once for all four; the last B%4 members run through maddBlock.
func (bm *BlockedMatrix) mulBlocked(pb *PackedBatch, out []float64, u16 []uint16) {
	N, B := pb.N, pb.B
	cols, nb, rp := bm.Cols, bm.Blocks, bm.RowPairs
	u16 = u16[:B*N]
	for i, c := range pb.U {
		u16[i] = uint16(c)
	}
	blkStride := rp * 2 * blockedColWidth
	var acc [4 * blockedColWidth]int32
	for bi := 0; bi < nb; bi++ {
		j0 := bi * blockedColWidth
		var wblk []int8
		if rp > 0 {
			wblk = bm.Data[bi*blkStride : (bi+1)*blkStride]
		}
		for k := 0; k < B; {
			g := 1
			if B-k >= 4 {
				g = 4
			}
			acc = [4 * blockedColWidth]int32{}
			if rp > 0 {
				if g == 4 {
					maddBlock4(&wblk[0], &u16[k*N], N, &acc[0], rp)
				} else {
					maddBlock(&wblk[0], &u16[k*N], &acc[0], rp)
				}
			}
			for m := 0; m < g; m++ {
				a := acc[m*blockedColWidth : (m+1)*blockedColWidth]
				if 2*rp < N { // odd tail row, scalar
					if uv := int32(pb.U[(k+m)*N+N-1]); uv != 0 {
						row := bm.q[(N-1)*cols+j0 : (N-1)*cols+j0+blockedColWidth]
						for j, q := range row {
							a[j] += int32(q) * uv
						}
					}
				}
				o := out[(k+m)*cols+j0 : (k+m)*cols+j0+blockedColWidth]
				for j := range o {
					o[j] = float64(a[j])
				}
			}
			k += g
		}
	}
}

// mulTail computes the trailing Cols%16 columns: a scalar column sweep over
// the source codes that skips zero codes.
func (bm *BlockedMatrix) mulTail(pb *PackedBatch, out []float64) {
	N, B, cols := pb.N, pb.B, bm.Cols
	if t0 := bm.Blocks * blockedColWidth; t0 < cols {
		tw := cols - t0
		var tacc [blockedColWidth]int32
		for k := 0; k < B; k++ {
			for j := 0; j < tw; j++ {
				tacc[j] = 0
			}
			u := pb.U[k*N : (k+1)*N]
			for i, c := range u {
				if c == 0 {
					continue
				}
				uv := int32(c)
				row := bm.q[i*cols+t0 : (i+1)*cols]
				for j, q := range row {
					tacc[j] += int32(q) * uv
				}
			}
			o := out[k*cols+t0 : (k+1)*cols]
			for j := range o {
				o[j] = float64(tacc[j])
			}
		}
	}
}
