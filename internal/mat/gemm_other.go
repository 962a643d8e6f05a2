//go:build !amd64

package mat

// Non-amd64 builds have no AVX2 kernel; cpufeat.AVX2 is false there, so
// GemmAcc always takes the portable kernel.
func gemmAVX2(m, n, k int, a *float64, aRow, aCol int, b, c *float64) {
	panic("mat: gemmAVX2 called without AVX2 support")
}
