package mat

import (
	"math"
	"math/rand"
	"testing"

	"autohet/internal/cpufeat"
)

// refGemm is the naive triple loop GemmAcc must reproduce bit for bit.
func refGemm(m, n, k int, a []float64, aRow, aCol int, b, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				c[i*n+j] += float64(a[i*aRow+p*aCol] * b[p*n+j])
			}
		}
	}
}

// specialValue draws from a palette that mixes ordinary values with signed
// zeros, subnormals and magnitudes whose products overflow.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return -math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 4:
		return (rng.Float64()*2 - 1) * 1e300
	case 5:
		return (rng.Float64()*2 - 1) * 1e-300
	case 6:
		return math.MaxFloat64 * float64(rng.Intn(3)-1)
	default:
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
	}
}

func randSlice(rng *rand.Rand, n int, special bool) []float64 {
	s := make([]float64, n)
	for i := range s {
		if special {
			s[i] = specialValue(rng)
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// sameBits treats every NaN as equal: NaN payloads depend on operand order
// inside the FPU, not on the summation the kernels promise.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkKernels runs the portable and (where the CPU has it) AVX2 kernels on
// one random case and requires both to match refGemm bit for bit.
func checkKernels(t *testing.T, rng *rand.Rand, m, n, k, aRow, aCol int, special bool) {
	t.Helper()
	a := randSlice(rng, (m-1)*aRow+(k-1)*aCol+1, special)
	b := randSlice(rng, k*n, special)
	c := randSlice(rng, m*n, special)
	want := append([]float64(nil), c...)
	refGemm(m, n, k, a, aRow, aCol, b, want)
	kernels := map[string]func(c []float64){
		"go": func(c []float64) { gemmGo(m, n, k, a, aRow, aCol, b, c) },
	}
	if cpufeat.AVX2 {
		kernels["avx2"] = func(c []float64) { gemmAVX2(m, n, k, &a[0], aRow, aCol, &b[0], &c[0]) }
	}
	for name, run := range kernels {
		got := append([]float64(nil), c...)
		run(got)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s kernel %dx%dx%d strides (%d,%d): C[%d] = %v (%#x), reference %v (%#x)",
					name, m, n, k, aRow, aCol, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestGemmAccTails walks every width through the 32-, 16-, 4- and scalar
// column tails, with row-major and transposed reads of A.
func TestGemmAccTails(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 80; n++ {
		for _, mk := range [][2]int{{1, 1}, {3, 5}, {2, 33}} {
			m, k := mk[0], mk[1]
			checkKernels(t, rng, m, n, k, k, 1, n%2 == 0)
			checkKernels(t, rng, m, n, k, 1, m, n%2 == 1)
		}
	}
}

// FuzzGemmAcc compares both kernels with the naive reference over shapes
// 1–80, arbitrary A strides (including 0 and overlapping reads) and value
// palettes with signed zeros, subnormals and overflowing products.
func FuzzGemmAcc(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(6), uint8(4), uint8(5), uint8(1), int64(2))
	f.Add(uint8(63), uint8(31), uint8(63), uint8(1), uint8(64), int64(3)) // Wᵀ·δ
	f.Add(uint8(63), uint8(63), uint8(31), uint8(32), uint8(1), int64(4)) // δ·X
	f.Add(uint8(0), uint8(31), uint8(63), uint8(0), uint8(11), int64(5))  // one input column
	f.Add(uint8(4), uint8(10), uint8(31), uint8(32), uint8(1), int64(6))
	for _, n := range []uint8{3, 15, 30, 32, 46, 47, 52, 79} {
		f.Add(uint8(5), n, uint8(7), uint8(7), uint8(1), int64(n))
	}
	f.Fuzz(func(t *testing.T, m, n, k, aRow, aCol uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkKernels(t, rng, 1+int(m)%80, 1+int(n)%80, 1+int(k)%80, int(aRow), int(aCol), seed%2 == 0)
	})
}

func TestGemmAccMatVec(t *testing.T) {
	w := []float64{1, 2, 3, 4, 5, 6} // 2×3
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	GemmAcc(2, 1, 3, w, 3, 1, x, dst)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("W·x = %v, want [-2 -2]", dst)
	}
}

func TestGemmAccTransposedA(t *testing.T) {
	w := []float64{1, 2, 3, 4, 5, 6} // 2×3, read as its 3×2 transpose
	x := []float64{1, -1}
	dst := make([]float64, 3)
	GemmAcc(3, 1, 2, w, 1, 3, x, dst)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Wᵀ·x = %v, want %v", dst, want)
		}
	}
}

func TestGemmAccShapePanics(t *testing.T) {
	cases := map[string]func(){
		"short a":   func() { GemmAcc(2, 1, 3, make([]float64, 5), 3, 1, make([]float64, 3), make([]float64, 2)) },
		"short b":   func() { GemmAcc(2, 1, 3, make([]float64, 6), 3, 1, make([]float64, 2), make([]float64, 2)) },
		"short c":   func() { GemmAcc(2, 2, 3, make([]float64, 6), 3, 1, make([]float64, 6), make([]float64, 3)) },
		"negative":  func() { GemmAcc(2, 1, 3, make([]float64, 6), -3, 1, make([]float64, 3), make([]float64, 2)) },
		"neg shape": func() { GemmAcc(-1, 1, 1, nil, 0, 0, nil, nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: GemmAcc did not panic", name)
				}
			}()
			f()
		}()
	}
	GemmAcc(0, 4, 4, nil, 0, 0, nil, nil) // empty product is a no-op
}

func TestGemmAccOuterProduct(t *testing.T) {
	c := make([]float64, 4)
	GemmAcc(2, 2, 1, []float64{0.5, 1}, 1, 1, []float64{3, 4}, c)
	want := []float64{1.5, 2, 3, 4}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("outer product = %v, want %v", c, want)
		}
	}
}
