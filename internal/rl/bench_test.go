package rl

import (
	"math/rand"
	"testing"
)

// fillPool gives a with n random transitions over its state dimension.
func fillPool(a *Agent, rng *rand.Rand, n int) {
	vec := func() []float64 {
		v := make([]float64, a.cfg.StateDim)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for i := 0; i < n; i++ {
		a.Remember(Transition{
			State: vec(), Action: rng.Float64(), Reward: rng.NormFloat64(),
			NextState: vec(), Done: i%16 == 15,
		})
	}
}

var sinkTD float64

// BenchmarkAgentUpdate times one DDPG minibatch update with the default
// configuration and the search's state width.
func BenchmarkAgentUpdate(b *testing.B) {
	a := NewAgent(DefaultAgentConfig(10))
	fillPool(a, rand.New(rand.NewSource(1)), 1024)
	a.Update()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTD = a.Update()
	}
}

// TestUpdateAllocationFree requires a steady-state Update, TD3 included, to
// allocate nothing: the minibatch, the chunk buffers and the networks'
// scratch and gradients are all reused.
func TestUpdateAllocationFree(t *testing.T) {
	for _, twin := range []bool{false, true} {
		cfg := DefaultAgentConfig(10)
		cfg.TwinCritics = twin
		cfg.TargetNoise = 0.2
		a := NewAgent(cfg)
		fillPool(a, rand.New(rand.NewSource(2)), 256)
		a.Update()
		if allocs := testing.AllocsPerRun(20, func() { a.Update() }); allocs != 0 {
			t.Errorf("twin=%v: %v allocations per Update", twin, allocs)
		}
	}
}
