package nn

import (
	"math"

	"autohet/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over one Network's
// parameters. DDPG conventionally trains both actor and critic with Adam.
type Adam struct {
	LR      float64 // learning rate (step size)
	Beta1   float64 // first-moment decay, default 0.9
	Beta2   float64 // second-moment decay, default 0.999
	Epsilon float64 // numerical floor, default 1e-8

	t  int // step counter
	mW []*mat.Matrix
	vW []*mat.Matrix
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an Adam optimizer bound to net's parameter shapes with the
// conventional default hyperparameters.
func NewAdam(net *Network, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for _, l := range net.Layers {
		a.mW = append(a.mW, mat.New(l.W.Rows, l.W.Cols))
		a.vW = append(a.vW, mat.New(l.W.Rows, l.W.Cols))
		a.mB = append(a.mB, make([]float64, len(l.B)))
		a.vB = append(a.vB, make([]float64, len(l.B)))
	}
	return a
}

// Step applies one Adam update using the gradients accumulated in net
// (scaled by 1/batchSize) and then clears them. batchSize must be ≥ 1.
func (a *Adam) Step(net *Network, batchSize int) {
	if batchSize < 1 {
		panic("nn: Adam.Step batchSize must be >= 1")
	}
	if len(a.mW) != len(net.Layers) {
		panic("nn: Adam bound to a different network shape")
	}
	a.t++
	scale := 1 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for li, l := range net.Layers {
		gw, gb := l.grads()
		mw, vw := a.mW[li], a.vW[li]
		for i, g := range gw.Data {
			g *= scale
			mw.Data[i] = a.Beta1*mw.Data[i] + (1-a.Beta1)*g
			vw.Data[i] = a.Beta2*vw.Data[i] + (1-a.Beta2)*g*g
			mh := mw.Data[i] / bc1
			vh := vw.Data[i] / bc2
			l.W.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
		}
		mb, vb := a.mB[li], a.vB[li]
		for i, g := range gb {
			g *= scale
			mb[i] = a.Beta1*mb[i] + (1-a.Beta1)*g
			vb[i] = a.Beta2*vb[i] + (1-a.Beta2)*g*g
			mh := mb[i] / bc1
			vh := vb[i] / bc2
			l.B[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
		}
	}
	net.ZeroGrad()
}

// Steps reports how many updates have been applied.
func (a *Adam) Steps() int { return a.t }
