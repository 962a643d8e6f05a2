package dnn

import (
	"fmt"

	"autohet/internal/mat"
)

// Float reference inference. The crossbar pipeline in package sim executes
// the same model through quantized, bit-sliced MVMs; these functions define
// the ground truth it is checked against.

// ConvRef computes a convolution layer on the float reference path. w is
// the layer's unfolded weight matrix (C_in·k² × C_out).
func ConvRef(l *Layer, in *Tensor, w *mat.Matrix) *Tensor {
	if l.Kind != Conv {
		panic("dnn: ConvRef on non-CONV layer " + l.Name)
	}
	if l.GroupCount() > 1 {
		panic("dnn: ConvRef does not support grouped convolutions: " + l.Name)
	}
	if in.C != l.InC {
		panic(fmt.Sprintf("dnn: ConvRef input channels %d, layer wants %d", in.C, l.InC))
	}
	if w.Rows != l.UnfoldedRows() || w.Cols != l.UnfoldedCols() {
		panic(fmt.Sprintf("dnn: ConvRef weights %dx%d, layer unfolds to %dx%d",
			w.Rows, w.Cols, l.UnfoldedRows(), l.UnfoldedCols()))
	}
	out := NewTensor(l.OutC, l.OutH, l.OutW)
	dst := make([]float64, l.OutC)
	for oy := 0; oy < l.OutH; oy++ {
		for ox := 0; ox < l.OutW; ox++ {
			patch := in.Patch(l, oy, ox)
			for j := 0; j < l.OutC; j++ {
				var sum float64
				for i, v := range patch {
					sum += v * w.At(i, j)
				}
				dst[j] = sum
			}
			for c, v := range dst {
				out.Set(c, oy, ox, v)
			}
		}
	}
	return out
}

// PoolMaxRef computes a max-pooling layer. Each window starts from its
// top-left element and scans rows then columns, clipped to the map,
// keeping the first strictly greater value.
func PoolMaxRef(l *Layer, in *Tensor) *Tensor {
	if l.Kind != Pool {
		panic("dnn: PoolMaxRef on non-POOL layer " + l.Name)
	}
	return PoolMaxRefInto(l, in, NewTensor(in.C, convOut(in.H, l.K, l.Stride, 0), convOut(in.W, l.K, l.Stride, 0)))
}

// PoolMaxRefInto is PoolMaxRef writing into out, which must have PoolMaxRef's
// output shape; every element is overwritten, so out may hold stale data.
func PoolMaxRefInto(l *Layer, in, out *Tensor) *Tensor {
	if l.Kind != Pool {
		panic("dnn: PoolMaxRef on non-POOL layer " + l.Name)
	}
	outH := convOut(in.H, l.K, l.Stride, 0)
	outW := convOut(in.W, l.K, l.Stride, 0)
	if out.C != in.C || out.H != outH || out.W != outW {
		panic(fmt.Sprintf("dnn: pool output %dx%dx%d, want %dx%dx%d", out.C, out.H, out.W, in.C, outH, outW))
	}
	inPlane, outPlane := in.H*in.W, outH*outW
	for c := 0; c < in.C; c++ {
		src := in.Data[c*inPlane : (c+1)*inPlane]
		dst := out.Data[c*outPlane : (c+1)*outPlane]
		for oy := 0; oy < outH; oy++ {
			y0 := oy * l.Stride
			y1 := min(y0+l.K, in.H)
			for ox := 0; ox < outW; ox++ {
				x0 := ox * l.Stride
				x1 := min(x0+l.K, in.W)
				best := src[y0*in.W+x0]
				for y := y0; y < y1; y++ {
					for _, v := range src[y*in.W+x0 : y*in.W+x1] {
						if v > best {
							best = v
						}
					}
				}
				dst[oy*outW+ox] = best
			}
		}
	}
	return out
}

// FCRef computes a fully-connected layer: out[j] = Σ_i in[i]·w[i][j].
func FCRef(l *Layer, in []float64, w *mat.Matrix) []float64 {
	if l.Kind != FC {
		panic("dnn: FCRef on non-FC layer " + l.Name)
	}
	if len(in) != l.InC {
		panic(fmt.Sprintf("dnn: FCRef input %d, layer wants %d", len(in), l.InC))
	}
	out := make([]float64, l.OutC)
	for j := 0; j < l.OutC; j++ {
		var sum float64
		for i, v := range in {
			sum += v * w.At(i, j)
		}
		out[j] = sum
	}
	return out
}

// ReLU clamps negatives to zero in place and returns x.
func ReLU(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

// RunReference runs the whole model in float, with ReLU after every
// mappable layer except the last (the logits), using SyntheticWeights(seed)
// for every layer. It returns the output vector.
func RunReference(m *Model, input *Tensor, seed int64) ([]float64, error) {
	if input.C != m.InC || input.H != m.InH || input.W != m.InW {
		return nil, fmt.Errorf("dnn: input %dx%dx%d, model %q wants %dx%dx%d",
			input.C, input.H, input.W, m.Name, m.InC, m.InH, m.InW)
	}
	cur := input
	var flat []float64
	last := m.Mappable()[m.NumMappable()-1]
	for _, l := range m.Layers {
		switch l.Kind {
		case Conv:
			w := SyntheticWeights(l, seed)
			cur = ConvRef(l, cur, w)
			if l != last {
				ReLU(cur.Data)
			}
		case Pool:
			cur = PoolMaxRef(l, cur)
		case FC:
			if flat == nil {
				flat = cur.Flatten()
			}
			w := SyntheticWeights(l, seed)
			flat = FCRef(l, flat, w)
			if l != last {
				ReLU(flat)
			}
		}
	}
	if flat == nil {
		flat = cur.Flatten()
	}
	return flat, nil
}
