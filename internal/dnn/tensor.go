package dnn

import (
	"fmt"
	"math/rand"
)

// Tensor is a C×H×W feature map stored C-major (channel, then row, then
// column) — the layout the unfolded weight matrices expect: flattening a
// k×k window across C channels yields the C_in·k² patch column of Fig. 7.
type Tensor struct {
	C, H, W int
	Data    []float64 // len C*H*W
}

// NewTensor returns a zeroed C×H×W tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float64 {
	t.check(c, y, x)
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float64) {
	t.check(c, y, x)
	t.Data[(c*t.H+y)*t.W+x] = v
}

func (t *Tensor) check(c, y, x int) {
	if c < 0 || c >= t.C || y < 0 || y >= t.H || x < 0 || x >= t.W {
		panic(fmt.Sprintf("dnn: index (%d,%d,%d) out of %dx%dx%d", c, y, x, t.C, t.H, t.W))
	}
}

// Flatten returns the tensor's data as a vector in C-major order — the
// layout FC layers consume after the last spatial layer.
func (t *Tensor) Flatten() []float64 {
	out := make([]float64, len(t.Data))
	copy(out, t.Data)
	return out
}

// Patch extracts the unfolded input column for the convolution window whose
// top-left output coordinate is (oy, ox): a vector of length C·k² ordered
// channel-major then row-major within the window, with zero padding outside
// the feature map. This matches the weight-matrix row order of Fig. 7.
func (t *Tensor) Patch(l *Layer, oy, ox int) []float64 {
	return t.PatchInto(make([]float64, t.C*l.K*l.K), l, oy, ox)
}

// PatchInto is Patch writing into dst, which must have length C·k² — the
// allocation-free form the sliding-window inference loop reuses per worker.
// It copies each window row straight out of the channel's row in Data: the
// window's in-map columns are clipped once per call, rows per window row,
// and everything clipped is written as zero padding.
func (t *Tensor) PatchInto(dst []float64, l *Layer, oy, ox int) []float64 {
	if l.Kind != Conv {
		panic("dnn: Patch on non-CONV layer " + l.Name)
	}
	k := l.K
	if len(dst) != t.C*k*k {
		panic(fmt.Sprintf("dnn: patch buffer %d, want %d", len(dst), t.C*k*k))
	}
	y0 := oy*l.Stride - l.Pad
	x0 := ox*l.Stride - l.Pad
	// Window columns [kx0, kx1) fall inside the map.
	kx0, kx1 := max(0, -x0), min(k, t.W-x0)
	plane := t.H * t.W
	i := 0
	for c := 0; c < t.C; c++ {
		ch := t.Data[c*plane : (c+1)*plane]
		for ky := 0; ky < k; ky++ {
			d := dst[i : i+k]
			i += k
			y := y0 + ky
			if y < 0 || y >= t.H || kx0 >= kx1 {
				clear(d) // zero padding; dst may be reused
				continue
			}
			row := ch[y*t.W+x0+kx0 : y*t.W+x0+kx1]
			clear(d[:kx0])
			copy(d[kx0:kx1], row)
			clear(d[kx1:])
		}
	}
	return dst
}

// SyntheticTensor returns a deterministic tensor with values in [0, 1)
// (post-ReLU activation range), standing in for dataset images (see
// DESIGN.md — substitutions).
func SyntheticTensor(c, h, w int, seed int64) *Tensor {
	t := NewTensor(c, h, w)
	rng := rand.New(rand.NewSource(seed ^ 0x7e57ab1e))
	for i := range t.Data {
		t.Data[i] = rng.Float64()
	}
	return t
}
