package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"autohet/internal/mat"
)

// Dense is one fully-connected layer: out = act(W·in + b).
type Dense struct {
	W   *mat.Matrix // out × in
	B   []float64   // out
	Act Activation

	// Gradient accumulators, filled by Network.Backward and consumed by the
	// optimizer. Same shapes as W and B; nil until the layer's first
	// gradient is accumulated, so target networks that are never trained
	// never hold them.
	GW *mat.Matrix
	GB []float64
}

// newDense allocates a layer with Xavier-initialized weights.
func newDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	w := mat.New(out, in)
	w.XavierInit(rng, in, out)
	return &Dense{W: w, B: make([]float64, out), Act: act}
}

// grads returns the layer's gradient accumulators, allocating them zeroed
// on first use.
func (l *Dense) grads() (*mat.Matrix, []float64) {
	if l.GW == nil {
		l.GW = mat.New(l.W.Rows, l.W.Cols)
		l.GB = make([]float64, len(l.B))
	}
	return l.GW, l.GB
}

// Network is a feed-forward stack of dense layers. Its passes run over a
// batch of samples at once and cache the activations in a scratch so a
// Backward call can follow a Forward call; a Network is therefore not safe
// for concurrent use (clone one per goroutine instead).
type Network struct {
	Layers []*Dense

	s *scratch
}

// scratch holds one network shape's batched buffers for up to cap samples.
// Activations and deltas are feature-major — element (f, s) of an n-sample
// pass sits at f*n+s — so each layer's batch is one contiguous matrix.
type scratch struct {
	widths []int // widths[0] is the input; widths[i+1] is layer i's output
	cap    int
	n      int // samples in the most recent forward pass
	// acts[i] and deltas[i] hold the activations and dLoss/d(activation)
	// at layer boundary i; deltas[0] is the input gradient.
	acts, deltas [][]float64
}

func newScratch(widths []int) *scratch {
	s := &scratch{widths: widths}
	s.reserve(1)
	return s
}

// reserve grows the buffers to hold n samples.
func (s *scratch) reserve(n int) {
	if n <= s.cap {
		return
	}
	s.cap = n
	s.acts = make([][]float64, len(s.widths))
	s.deltas = make([][]float64, len(s.widths))
	for i, w := range s.widths {
		s.acts[i] = make([]float64, w*n)
		s.deltas[i] = make([]float64, w*n)
	}
}

// LayerSpec describes one layer of an MLP for NewNetwork.
type LayerSpec struct {
	Out int
	Act Activation
}

// NewNetwork builds an MLP with the given input width and layer specs.
// Weights are Xavier-initialized from rng.
func NewNetwork(rng *rand.Rand, inputs int, specs ...LayerSpec) *Network {
	if inputs <= 0 {
		panic("nn: network needs a positive input width")
	}
	if len(specs) == 0 {
		panic("nn: network needs at least one layer")
	}
	n := &Network{}
	in := inputs
	for _, s := range specs {
		if s.Out <= 0 {
			panic(fmt.Sprintf("nn: layer width %d invalid", s.Out))
		}
		n.Layers = append(n.Layers, newDense(rng, in, s.Out, s.Act))
		in = s.Out
	}
	n.allocScratch()
	return n
}

func (n *Network) allocScratch() {
	widths := []int{n.InputSize()}
	for _, l := range n.Layers {
		widths = append(widths, len(l.B))
	}
	n.s = newScratch(widths)
}

// ShareScratch makes n use other's scratch buffers; the two must have the
// same layer widths. Networks that run one after another — an online
// network and its target — then hold one set of batch buffers instead of
// two, at a price: a pass of either overwrites what the other's last pass
// returned or cached, so each Backward must follow its own network's
// Forward with no pass of a sharing network in between.
func (n *Network) ShareScratch(other *Network) {
	if !slices.Equal(n.s.widths, other.s.widths) {
		panic(fmt.Sprintf("nn: ShareScratch widths %v vs %v", n.s.widths, other.s.widths))
	}
	n.s = other.s
}

// InputSize returns the expected input width.
func (n *Network) InputSize() int { return n.Layers[0].W.Cols }

// OutputSize returns the output width.
func (n *Network) OutputSize() int { return len(n.Layers[len(n.Layers)-1].B) }

// Forward runs x through the network and returns the output activation —
// the one-sample case of ForwardBatch, with the same ownership rules.
func (n *Network) Forward(x []float64) []float64 { return n.ForwardBatch(x, 1) }

// ForwardBatch runs a batch of samples through the network. x holds them
// feature-major (x[f*samples+s] is feature f of sample s), and so does the
// returned OutputSize()×samples output, which is owned by the network's
// scratch and overwritten by the next pass. Every sample's output is
// bit-identical to a one-sample Forward of it: each layer is one GemmAcc,
// which sums every unit's inputs in ascending order like a dot product.
func (n *Network) ForwardBatch(x []float64, samples int) []float64 {
	if samples < 1 || len(x) != n.InputSize()*samples {
		panic(fmt.Sprintf("nn: input size %d for %d samples, want %d per sample", len(x), samples, n.InputSize()))
	}
	s := n.s
	s.reserve(samples)
	s.n = samples
	copy(s.acts[0], x)
	for i, l := range n.Layers {
		rows, cols := l.W.Rows, l.W.Cols
		out := s.acts[i+1][:rows*samples]
		clear(out)
		mat.GemmAcc(rows, samples, cols, l.W.Data, cols, 1, s.acts[i][:cols*samples], out)
		for j, b := range l.B {
			l.Act.applyBiased(out[j*samples:(j+1)*samples], b)
		}
	}
	return s.acts[len(n.Layers)][:n.OutputSize()*samples]
}

// Backward accumulates parameter gradients for the most recent Forward call,
// given dLoss/dOutput, and returns dLoss/dInput (owned by the network's
// scratch). It is the one-sample case of BackwardBatch with every input
// gradient. Gradients add into GW/GB so minibatch updates can accumulate
// across samples; call ZeroGrad before a new batch.
func (n *Network) Backward(dOut []float64) []float64 {
	return n.BackwardBatch(dOut, true, 0, n.InputSize())
}

// BackwardBatch backpropagates dOut (dLoss/dOutput, OutputSize()×samples,
// feature-major) through the most recent ForwardBatch. With grads it adds
// the parameter gradients into GW/GB sample by sample in batch order, so
// the sums round exactly as one-sample Backward calls would. It returns
// dLoss/dInput for input features [lo, hi) only — (hi−lo)×samples,
// feature-major, owned by the scratch — and skips that product when
// lo == hi; callers that discard parameter or input gradients pay for
// neither.
func (n *Network) BackwardBatch(dOut []float64, grads bool, lo, hi int) []float64 {
	s := n.s
	samples := s.n
	last := len(n.Layers)
	if len(dOut) != n.OutputSize()*samples {
		panic(fmt.Sprintf("nn: dOut size %d, want %d", len(dOut), n.OutputSize()*samples))
	}
	if lo < 0 || hi < lo || hi > n.InputSize() {
		panic(fmt.Sprintf("nn: input gradient range [%d,%d) of %d", lo, hi, n.InputSize()))
	}
	copy(s.deltas[last], dOut)
	for i := last - 1; i >= 0; i-- {
		l := n.Layers[i]
		rows, cols := l.W.Rows, l.W.Cols
		delta := s.deltas[i+1][:rows*samples]
		out := s.acts[i+1][:rows*samples]
		// Fold the activation derivative into the delta.
		for j := range delta {
			delta[j] *= l.Act.Derivative(out[j])
		}
		if grads {
			gw, gb := l.grads()
			// GW += δ·X over the batch, X being the layer input sample-major.
			// The transposed copy borrows deltas[i], which has X's size and
			// is not written until the input gradient below.
			in, xt := s.acts[i], s.deltas[i][:samples*cols]
			for f := 0; f < cols; f++ {
				for k, v := range in[f*samples : (f+1)*samples] {
					xt[k*cols+f] = v
				}
			}
			mat.GemmAcc(rows, cols, samples, delta, samples, 1, xt, gw.Data)
			for j := range gb {
				for _, d := range delta[j*samples : (j+1)*samples] {
					gb[j] += d
				}
			}
		}
		// dLoss/dInput = Wᵀ·δ, reading W through transposing strides.
		switch {
		case i > 0:
			dIn := s.deltas[i][:cols*samples]
			clear(dIn)
			mat.GemmAcc(cols, samples, rows, l.W.Data, 1, cols, delta, dIn)
		case hi > lo:
			dIn := s.deltas[0][:(hi-lo)*samples]
			clear(dIn)
			mat.GemmAcc(hi-lo, samples, rows, l.W.Data[lo:], 1, cols, delta, dIn)
		}
	}
	return s.deltas[0][:(hi-lo)*samples]
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		if l.GW == nil {
			continue
		}
		l.GW.Zero()
		clear(l.GB)
	}
}

// Clone returns a deep copy of the network's weights, with its own scratch
// and no gradients.
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		out.Layers = append(out.Layers, &Dense{
			W:   l.W.Clone(),
			B:   append([]float64(nil), l.B...),
			Act: l.Act,
		})
	}
	out.allocScratch()
	return out
}

// SoftUpdate moves this network's parameters toward src:
// θ ← (1−tau)·θ + tau·θ_src. It implements DDPG target-network tracking.
func (n *Network) SoftUpdate(src *Network, tau float64) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: SoftUpdate layer count mismatch")
	}
	for i, l := range n.Layers {
		s := src.Layers[i]
		l.W.Lerp(s.W, tau)
		for j := range l.B {
			l.B[j] = (1-tau)*l.B[j] + tau*s.B[j]
		}
	}
}

// CopyFrom hard-copies parameters from src (tau = 1 soft update).
func (n *Network) CopyFrom(src *Network) { n.SoftUpdate(src, 1) }

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.W.Rows*l.W.Cols + len(l.B)
	}
	return total
}

// GradMaxAbs returns the largest absolute accumulated gradient, useful for
// diagnosing divergence in tests.
func (n *Network) GradMaxAbs() float64 {
	var max float64
	for _, l := range n.Layers {
		if l.GW == nil {
			continue
		}
		if g := l.GW.MaxAbs(); g > max {
			max = g
		}
		for _, g := range l.GB {
			if g < 0 {
				g = -g
			}
			if g > max {
				max = g
			}
		}
	}
	return max
}
