package quant

import (
	"math/rand"
	"testing"

	"autohet/internal/cpufeat"
)

// TestBlockedMatchesReference checks the AVX2 blocked kernel bit-exactly
// against the scalar signed reference Σ_i q_i·u_i across shapes that
// exercise every tail: odd rows (scalar tail row), cols % 16 ≠ 0 (scalar
// column tail), single-member and wide batches, extreme codes (±128, 255).
func TestBlockedMatchesReference(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 blocked kernel on this CPU")
	}
	shapes := []struct{ rows, cols, B int }{
		{2, 16, 1},
		{3, 16, 2},  // odd rows
		{64, 48, 8}, // multiple blocks
		{65, 50, 5}, // odd rows + column tail
		{1, 17, 3},  // rp == 0: tail row only
		{200, 16, 33},
		{7, 31, 4},
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		m := &Matrix{Rows: sh.rows, Cols: sh.cols, Bits: 8, Scale: 1, Q: make([]int8, sh.rows*sh.cols)}
		for i := range m.Q {
			m.Q[i] = int8(rng.Intn(256) - 128)
		}
		// Force extremes into the corners.
		m.Q[0] = -128
		m.Q[len(m.Q)-1] = 127
		ins := make([]*Input, sh.B)
		for k := range ins {
			u := make([]uint8, sh.rows)
			for i := range u {
				u[i] = uint8(rng.Intn(256))
			}
			u[0] = 255
			ins[k] = &Input{N: sh.rows, Scale: 1, U: u, DigitWords: packDigits(nil, u)}
		}
		pb := PackInputs(ins)
		bw := m.Blocked()
		if sh.cols < blockedColWidth {
			if bw != nil {
				t.Fatalf("%dx%d: Blocked() should be nil below one block width", sh.rows, sh.cols)
			}
			continue
		}
		if bw == nil {
			t.Fatalf("%dx%d: Blocked() returned nil with AVX2 available", sh.rows, sh.cols)
		}
		out := make([]float64, sh.B*sh.cols)
		bw.MulBatch(pb, out, make([]uint16, sh.B*sh.rows))
		for k := 0; k < sh.B; k++ {
			for j := 0; j < sh.cols; j++ {
				var want int64
				for i := 0; i < sh.rows; i++ {
					want += int64(m.Q[i*sh.cols+j]) * int64(ins[k].U[i])
				}
				if got := int64(out[k*sh.cols+j]); got != want {
					t.Fatalf("%dx%d B=%d member %d col %d: blocked %d, reference %d",
						sh.rows, sh.cols, sh.B, k, j, got, want)
				}
			}
		}
	}
}

// TestBlockedRowBound checks the memo's overflow gate: matrices above
// maxBlockedRows must not get a blocked form.
func TestBlockedRowBound(t *testing.T) {
	m := &Matrix{Rows: maxBlockedRows + 1, Cols: 16, Bits: 8, Scale: 1, Q: make([]int8, (maxBlockedRows+1)*16)}
	if m.Blocked() != nil {
		t.Fatalf("Blocked() must refuse %d rows (bound %d)", m.Rows, maxBlockedRows)
	}
}

// FuzzBlockedMVM checks the AVX2 kernels behind BlockedMatrix.MulBatch
// against the scalar signed reference Σ_i q_i·u_i, `==` for every member
// and column, on the shapes the batched fuzzer cannot reach (it stays
// below one block width): cols 16–48 (one to three blocks, with and
// without a column tail), odd and even rows down to a single row
// (RowPairs == 0: tail row only), and B = 1–33, so the single-member
// row-gather path and every group-of-four remainder of the blocked path
// (maddBlock4 and maddBlock) are met. The payload bytes fill the first
// pass over the weights and the codes raw, so −128, 127 and 255 occur
// whenever the payload holds them; each later pass adds its wrap count,
// so rows and members differ even for short payloads. zeroRaw then clears
// zeroRaw/255 of the codes, spread by a fixed permutation (255 clears them
// all), so the row gather sees sparse inputs and every leftover count of
// non-zero rows. Seeds cover the whole largest shape with extremes (the
// overflow worst case) at B = 33 and B = 1, all-zero codes, a single
// non-zero code, an odd non-zero count and only the last row non-zero.
func FuzzBlockedMVM(f *testing.F) {
	if !cpufeat.AVX2 {
		f.Skip("no AVX2 blocked kernel on this CPU")
	}
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), []byte{0x80, 0x7f}, []byte{255})
	f.Add(uint8(1), uint8(2), uint8(4), uint8(0), []byte{0x80}, []byte{255, 0})
	f.Add(uint8(16), uint8(3), uint8(32), uint8(0), []byte{0x7f, 0x80, 1, 0xff}, []byte{255, 255, 1})
	f.Add(uint8(32), uint8(99), uint8(200), uint8(0), []byte{3, 0x80, 0x7f}, []byte{0, 255, 128, 7})
	extremeW := make([]byte, 199*48)
	for i := range extremeW {
		extremeW[i] = 0x80 // -128, with every third weight 127
		if i%3 == 1 {
			extremeW[i] = 0x7f
		}
	}
	extremeU := make([]byte, 33*199)
	for i := range extremeU {
		extremeU[i] = 255
	}
	f.Add(uint8(32), uint8(32), uint8(198), uint8(0), extremeW, extremeU)
	// Single-member seeds for the row-gather path (batchRaw 0 → B = 1).
	f.Add(uint8(32), uint8(0), uint8(198), uint8(0), extremeW, extremeU[:199])
	f.Add(uint8(17), uint8(0), uint8(63), uint8(255), []byte{0x80, 0x7f, 5}, []byte{255, 9})
	sparse := func(rows int, nonZero ...int) []byte {
		u := make([]byte, rows)
		for _, i := range nonZero {
			u[i] = byte(200 + i%56)
		}
		return u
	}
	f.Add(uint8(16), uint8(0), uint8(99), uint8(0), []byte{0x80, 0x7f, 3}, sparse(100, 41))
	f.Add(uint8(20), uint8(0), uint8(99), uint8(0), []byte{0x7f, 0x80, 0xfe}, sparse(100, 0, 7, 50, 51, 60, 98, 99))
	f.Add(uint8(1), uint8(0), uint8(99), uint8(0), []byte{0x80, 0x7f}, sparse(100, 99))
	f.Add(uint8(32), uint8(0), uint8(150), uint8(128), []byte{0x80, 0x7f, 1, 0xfe}, []byte{255, 3, 128})
	f.Fuzz(func(t *testing.T, colsRaw, batchRaw, rowsRaw, zeroRaw uint8, wdata, xdata []byte) {
		if len(wdata) == 0 || len(xdata) == 0 {
			return
		}
		cols := 16 + int(colsRaw)%33
		B := int(batchRaw)%33 + 1
		rows := int(rowsRaw)%200 + 1
		m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
		for i := range m.Q {
			m.Q[i] = int8(wdata[i%len(wdata)] + uint8(i/len(wdata)))
		}
		pb := &PackedBatch{}
		pb.resize(rows, B, false)
		for i := range pb.U {
			pb.U[i] = xdata[i%len(xdata)] + uint8(7*(i/len(xdata)))
			if (i*167)%255 < int(zeroRaw) {
				pb.U[i] = 0
			}
		}
		bw := m.Blocked()
		if bw == nil {
			t.Fatalf("%dx%d: Blocked() returned nil with AVX2 available", rows, cols)
		}
		out := make([]float64, B*cols)
		for i := range out {
			out[i] = -1 // MulBatch must overwrite every element
		}
		bw.MulBatch(pb, out, make([]uint16, B*rows))
		for k := 0; k < B; k++ {
			u := pb.Member(k)
			for j := 0; j < cols; j++ {
				var want int64
				for i, c := range u {
					want += int64(m.Q[i*cols+j]) * int64(c)
				}
				if got := out[k*cols+j]; got != float64(want) {
					t.Fatalf("%dx%d B=%d member %d col %d: blocked %v, reference %d",
						rows, cols, B, k, j, got, want)
				}
			}
		}
	})
}
