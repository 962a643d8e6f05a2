//go:build amd64

package quant

// maddBlock accumulates one member's signed MVM over one 16-column weight
// block into acc[0:16] (int32, read-modified-written): for each of rowPairs
// row pairs it broadcasts the two widened input codes at u[2p], u[2p+1] and
// multiply-adds the 32 interleaved int8 weights at w[32p:32p+32]. rowPairs
// must be ≥ 1 and small enough that lanes cannot overflow (maxBlockedRows).
// AVX2 only — callers gate on Matrix.Blocked() returning non-nil.
//
//go:noescape
func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int)

// maddBlock4 is maddBlock for four batch members sharing one weight block:
// member m's codes start at u[m·uStride] and its accumulators are
// acc[16m:16m+16]. Each row pair's weights are widened once for all four.
// Same preconditions as maddBlock.
//
//go:noescape
func maddBlock4(w *int8, u *uint16, uStride int, acc *int32, rowPairs int)

// maddRowQuad adds q_a[j]·u_a + q_b[j]·u_b + q_c[j]·u_c + q_d[j]·u_d into
// acc for the first 16·blocks columns of four row-major weight rows, where
// codeAB = u_a | u_b<<16 and codeCD = u_c | u_d<<16, and prefetches the
// same columns of rows pa–pd (the next group; they are only read as
// prefetch hints). Each 16-column block's sums land in acc in the fixed
// order cols 0–3, 8–11, 4–7, 12–15 (the in-lane interleave);
// BlockedMatrix.mulOne undoes it. blocks must be ≥ 1 and the row count
// within maxBlockedRows. AVX2 only.
//
//go:noescape
func maddRowQuad(a, b, c, d, pa, pb, pc, pd *int8, codeAB, codeCD uint32, acc *int32, blocks int)
