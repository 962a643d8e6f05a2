//go:build !amd64

package quant

// Non-amd64 builds have no AVX2 kernel; cpufeat.AVX2 is false there, so
// Matrix.Blocked() always returns nil and callers fall back to the pair or
// scalar kernels.

func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int) {
	panic("quant: maddBlock called without AVX2 support")
}

func maddBlock4(w *int8, u *uint16, uStride int, acc *int32, rowPairs int) {
	panic("quant: maddBlock4 called without AVX2 support")
}

func maddRowQuad(a, b, c, d, pa, pb, pc, pd *int8, codeAB, codeCD uint32, acc *int32, blocks int) {
	panic("quant: maddRowQuad called without AVX2 support")
}
