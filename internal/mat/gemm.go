package mat

import (
	"fmt"

	"autohet/internal/cpufeat"
)

// GemmAcc computes C += A·B for an m×k A, a k×n B and an m×n C. B and C are
// row-major with row stride n. A is read through strides: element (i, p) is
// a[i*aRow + p*aCol], so a row-major A has (aRow, aCol) = (k, 1), a
// transposed view of a row-major k×m matrix has (1, m), and a column
// slice starts a at the column's offset.
//
// Every element of C adds its k terms in ascending p, each product rounded
// on its own before the add (no fused multiply-add), exactly as
//
//	for p := 0; p < k; p++ {
//		c[i*n+j] += float64(a[i*aRow+p*aCol] * b[p*n+j])
//	}
//
// would. The AVX2 kernel vectorizes across j only, never across p, so both
// kernels give bit-identical results; one dot product, one transposed
// matrix-vector product or one outer-product update per sample are the
// n = 1 or k = 1 cases of the same summation.
func GemmAcc(m, n, k int, a []float64, aRow, aCol int, b, c []float64) {
	if m < 0 || n < 0 || k < 0 || aRow < 0 || aCol < 0 {
		panic(fmt.Sprintf("mat: GemmAcc negative shape %dx%dx%d or stride (%d,%d)", m, n, k, aRow, aCol))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if len(a) <= (m-1)*aRow+(k-1)*aCol || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("mat: GemmAcc %dx%dx%d with strides (%d,%d) over len(a)=%d len(b)=%d len(c)=%d",
			m, n, k, aRow, aCol, len(a), len(b), len(c)))
	}
	if cpufeat.AVX2 {
		gemmAVX2(m, n, k, &a[0], aRow, aCol, &b[0], &c[0])
		return
	}
	gemmGo(m, n, k, a, aRow, aCol, b, c)
}

// gemmGo is the portable kernel. The explicit float64 conversion rounds
// each product, which keeps the compiler from fusing it into the add.
func gemmGo(m, n, k int, a []float64, aRow, aCol int, b, c []float64) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[i*aRow+p*aCol]
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}
