package quant

import (
	"math/rand"
	"testing"
)

// benchKernelSetup builds a random 8-bit weight matrix and a quantized
// input batch with roughly `sparsity` fraction of zero activations (the
// post-ReLU regime the serving path sees).
func benchKernelSetup(rows, cols, B int, sparsity float64) (*Matrix, *PackedBatch) {
	rng := rand.New(rand.NewSource(1))
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(256) - 128)
	}
	xs := make([]float64, rows*B)
	for i := range xs {
		if rng.Float64() >= sparsity {
			xs[i] = rng.Float64() * 100
		}
	}
	pb := QuantizeBatchFlatInto(nil, xs, rows, B)
	return m, pb
}

// The conv4-shaped (3456×256, B=32) kernel legs: paired-column scalar vs
// AVX2 blocked. SetBytes counts MACs, so MB/s reads as MMAC/s.
func BenchmarkPairMulBatchConv4(b *testing.B) {
	m, pb := benchKernelSetup(3456, 256, 32, 0.4)
	pw := m.Pairs()
	out := make([]float64, pb.B*m.Cols)
	acc := make([]uint64, pb.B*pw.Pairs)
	b.SetBytes(int64(m.Rows) * int64(m.Cols) * int64(pb.B))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw.MulBatchFloat(pb, out, acc)
	}
}

func BenchmarkBlockedMulBatchConv4(b *testing.B) {
	m, pb := benchKernelSetup(3456, 256, 32, 0.4)
	bw := m.Blocked()
	if bw == nil {
		b.Skip("no AVX2 blocked kernel on this CPU")
	}
	out := make([]float64, pb.B*m.Cols)
	u16 := make([]uint16, pb.B*pb.N)
	b.SetBytes(int64(m.Rows) * int64(m.Cols) * int64(pb.B))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.MulBatch(pb, out, u16)
	}
}

// The fc7-shaped (4096×4096, B=1) leg: one member through the row-gather
// kernel with half of its codes zero, the post-ReLU density AlexNet's fc7
// sees. SetBytes counts the full matrix's MACs, so MB/s reads as dense-
// equivalent MMAC/s.
func BenchmarkBlockedMulBatchFC7B1(b *testing.B) {
	m, pb := benchKernelSetup(4096, 4096, 1, 0.5)
	bw := m.Blocked()
	if bw == nil {
		b.Skip("no AVX2 blocked kernel on this CPU")
	}
	out := make([]float64, m.Cols)
	u16 := make([]uint16, pb.N)
	b.SetBytes(int64(m.Rows) * int64(m.Cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.MulBatch(pb, out, u16)
	}
}
