// Package nn is a small fully-connected neural-network library built for the
// DDPG agent in package rl. It supports batched forward/backward passes —
// one mat.GemmAcc per layer and direction over a feature-major batch, with
// the one-sample Forward/Backward as the batch-of-one case — the Adam
// optimizer, and the soft (Polyak) parameter updates DDPG's target networks
// require. It deliberately implements only what the paper's RL
// search needs — dense layers with ReLU/tanh/sigmoid/linear activations.
package nn

import "math"

// Activation names an element-wise nonlinearity applied after a dense layer.
type Activation int

// Supported activations. Linear is the identity and is used on critic
// outputs; Sigmoid bounds actor outputs to (0,1) so they can be decoded into
// a crossbar-candidate index; Tanh is the conventional DDPG hidden/actor
// choice; ReLU is used in hidden layers.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
)

// String returns the activation's conventional lowercase name.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return "unknown"
	}
}

// Apply computes the activation of x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Linear:
		return x
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		panic("nn: unknown activation")
	}
}

// applyBiased sets x[k] = σ(x[k] + b) for every k — Apply over one unit's
// batch, with the activation chosen once rather than per element.
func (a Activation) applyBiased(x []float64, b float64) {
	switch a {
	case Linear:
		for k, v := range x {
			x[k] = v + b
		}
	case ReLU:
		for k, v := range x {
			if v += b; v < 0 {
				v = 0
			}
			x[k] = v
		}
	default:
		for k, v := range x {
			x[k] = a.Apply(v + b)
		}
	}
}

// Derivative computes dσ/dx given the activation output y = σ(x). Expressing
// the derivative in terms of the output avoids caching pre-activations.
func (a Activation) Derivative(y float64) float64 {
	switch a {
	case Linear:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		panic("nn: unknown activation")
	}
}
