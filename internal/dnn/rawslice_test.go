package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// patchIntoAt is PatchInto as first written, one bounds-checked At per
// element — the reference the row-slice version must reproduce exactly.
func patchIntoAt(t *Tensor, dst []float64, l *Layer, oy, ox int) {
	k := l.K
	y0 := oy*l.Stride - l.Pad
	x0 := ox*l.Stride - l.Pad
	i := 0
	for c := 0; c < t.C; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				y, x := y0+ky, x0+kx
				if y >= 0 && y < t.H && x >= 0 && x < t.W {
					dst[i] = t.At(c, y, x)
				} else {
					dst[i] = 0
				}
				i++
			}
		}
	}
}

// poolMaxAt is PoolMaxRef as first written, on At/Set.
func poolMaxAt(l *Layer, in *Tensor) *Tensor {
	outH := convOut(in.H, l.K, l.Stride, 0)
	outW := convOut(in.W, l.K, l.Stride, 0)
	out := NewTensor(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := in.At(c, oy*l.Stride, ox*l.Stride)
				for ky := 0; ky < l.K; ky++ {
					for kx := 0; kx < l.K; kx++ {
						y, x := oy*l.Stride+ky, ox*l.Stride+kx
						if y < in.H && x < in.W {
							if v := in.At(c, y, x); v > best {
								best = v
							}
						}
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out
}

// rawSliceTensor fills a tensor with random values, ties, −0 and a NaN so
// that bitwise comparison sees which element each output came from.
func rawSliceTensor(rng *rand.Rand, c, h, w int) *Tensor {
	t := NewTensor(c, h, w)
	for i := range t.Data {
		switch rng.Intn(10) {
		case 0:
			t.Data[i] = math.Copysign(0, -1)
		case 1:
			t.Data[i] = 0.5 // ties under max
		case 2:
			t.Data[i] = -rng.Float64()
		default:
			t.Data[i] = rng.Float64()
		}
	}
	t.Data[len(t.Data)/2] = math.NaN()
	return t
}

// sameBits returns the first index where a and b (equal lengths) differ
// bitwise, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPatchIntoMatchesAtReference sweeps kernel sizes, strides and pads
// over odd map sizes, including window positions past the output grid
// (all padding), into a dst poisoned with NaN so a skipped write shows.
func TestPatchIntoMatchesAtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 3, 5, 7, 11} {
		for stride := 1; stride <= 4; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for _, hw := range [][2]int{{7, 9}, {13, 5}, {3, 3}} {
					in := rawSliceTensor(rng, 2, hw[0], hw[1])
					l := conv("c", k, 2, 1, stride, pad)
					outH := convOut(in.H, k, stride, pad)
					outW := convOut(in.W, k, stride, pad)
					got := make([]float64, 2*k*k)
					want := make([]float64, 2*k*k)
					for oy := -1; oy <= outH; oy++ {
						for ox := -1; ox <= outW; ox++ {
							for i := range got {
								got[i] = math.NaN()
							}
							in.PatchInto(got, l, oy, ox)
							patchIntoAt(in, want, l, oy, ox)
							if i := sameBits(got, want); i >= 0 {
								t.Fatalf("k=%d stride=%d pad=%d %dx%d at (%d,%d): element %d = %v, want %v",
									k, stride, pad, in.H, in.W, oy, ox, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// zeroTieTensor holds only −0, +0 and −1, so every window's maximum is a
// tie between zeros of different sign: only the strict > in window order
// picks the same one as the reference.
func zeroTieTensor(rng *rand.Rand, c, h, w int) *Tensor {
	t := NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = []float64{math.Copysign(0, -1), 0, -1}[rng.Intn(3)]
	}
	return t
}

// TestPoolMaxRefMatchesAtReference sweeps window sizes and strides over
// odd maps, so windows hang over the right and bottom edges (and, with
// K larger than the map, cover it whole).
func TestPoolMaxRefMatchesAtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 2, 3, 5, 7, 11} {
		for stride := 1; stride <= 4; stride++ {
			for i, hw := range [][2]int{{7, 9}, {13, 5}, {3, 3}, {1, 6}, {9, 7}, {5, 11}} {
				in := rawSliceTensor(rng, 3, hw[0], hw[1])
				if i >= 4 {
					in = zeroTieTensor(rng, 3, hw[0], hw[1])
				}
				l := pool("p", k, stride)
				got, want := PoolMaxRef(l, in), poolMaxAt(l, in)
				if got.C != want.C || got.H != want.H || got.W != want.W {
					t.Fatalf("k=%d stride=%d %dx%d: shape %dx%dx%d, want %dx%dx%d", k, stride, in.H, in.W,
						got.C, got.H, got.W, want.C, want.H, want.W)
				}
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("k=%d stride=%d %dx%d: element %d = %v, want %v",
						k, stride, in.H, in.W, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
