//go:build amd64

package mat

// gemmAVX2 is GemmAcc's AVX2 kernel (gemm_amd64.s). It requires m, n, k ≥ 1
// and the bounds GemmAcc checks; callers gate on cpufeat.AVX2.
//
//go:noescape
func gemmAVX2(m, n, k int, a *float64, aRow, aCol int, b, c *float64)
