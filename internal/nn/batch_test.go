package nn

import (
	"math"
	"math/rand"
	"testing"
)

// batchNet covers every activation and layer widths on both sides of the
// GEMM kernel's column blocks.
func batchNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(rng, 11,
		LayerSpec{Out: 40, Act: ReLU},
		LayerSpec{Out: 33, Act: Tanh},
		LayerSpec{Out: 3, Act: Sigmoid},
		LayerSpec{Out: 2, Act: Linear},
	)
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, one-sample passes give %v", what, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesOneSamplePasses requires a batched pass to reproduce, bit
// for bit, the outputs, accumulated parameter gradients and input gradients
// of one Forward/Backward pair per sample in batch order — the contract the
// DDPG learner's golden pins rest on.
func TestBatchMatchesOneSamplePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, samples := range []int{1, 2, 7, 32, 37} {
		batched, single := batchNet(9), batchNet(9)
		in, out := batched.InputSize(), batched.OutputSize()
		x := make([]float64, in*samples) // feature-major
		dOut := make([]float64, out*samples)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}
		lo, hi := 2, 9
		wantOut := make([]float64, out*samples)
		wantDIn := make([]float64, (hi-lo)*samples)
		xs, ds := make([]float64, in), make([]float64, out)
		for s := 0; s < samples; s++ {
			for f := range xs {
				xs[f] = x[f*samples+s]
			}
			for f := range ds {
				ds[f] = dOut[f*samples+s]
			}
			for f, v := range single.Forward(xs) {
				wantOut[f*samples+s] = v
			}
			for f, v := range single.Backward(ds)[lo:hi] {
				wantDIn[f*samples+s] = v
			}
		}
		sameFloats(t, "output", batched.ForwardBatch(x, samples), wantOut)
		sameFloats(t, "input gradient", batched.BackwardBatch(dOut, true, lo, hi), wantDIn)
		for li, l := range batched.Layers {
			sameFloats(t, "GW", l.GW.Data, single.Layers[li].GW.Data)
			sameFloats(t, "GB", l.GB, single.Layers[li].GB)
		}
		// Without parameter gradients the input gradient is unchanged and
		// the accumulators are left alone.
		batched.ZeroGrad()
		batched.ForwardBatch(x, samples)
		sameFloats(t, "probe input gradient", batched.BackwardBatch(dOut, false, lo, hi), wantDIn)
		if g := batched.GradMaxAbs(); g != 0 {
			t.Fatalf("BackwardBatch without grads accumulated %v", g)
		}
	}
}

func TestShareScratch(t *testing.T) {
	a, b := batchNet(1), batchNet(2)
	wantB := append([]float64(nil), b.Forward(make([]float64, 11))...)
	b.ShareScratch(a)
	a.ForwardBatch(make([]float64, 11*40), 40) // grows the shared buffers
	sameFloats(t, "shared-scratch output", b.Forward(make([]float64, 11)), wantB)
	defer func() {
		if recover() == nil {
			t.Fatal("ShareScratch across shapes did not panic")
		}
	}()
	a.ShareScratch(newTestNet(1))
}

func TestCloneCarriesNoGradients(t *testing.T) {
	n := batchNet(3)
	n.Backward(n.Forward(make([]float64, 11)))
	c := n.Clone()
	for _, l := range c.Layers {
		if l.GW != nil || l.GB != nil {
			t.Fatal("Clone allocated gradient accumulators")
		}
	}
	c.ZeroGrad() // no accumulators: a no-op
	if c.GradMaxAbs() != 0 {
		t.Fatal("clone reports gradients")
	}
}

func TestBackwardBatchRejectsBadRange(t *testing.T) {
	n := batchNet(4)
	n.Forward(make([]float64, 11))
	defer func() {
		if recover() == nil {
			t.Fatal("input gradient range past the input did not panic")
		}
	}()
	n.BackwardBatch(make([]float64, 2), false, 3, 12)
}
