package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"autohet/internal/cpufeat"
	"autohet/internal/nn"
)

// Golden pins: the FNV-64a digest of every network's parameters, the TD
// losses Update returned and a few greedy actions after a fixed training
// run. Any change to the learner's arithmetic, however small, moves them;
// speed work on the learner must keep them.
var goldenCases = []struct {
	name string
	cfg  func() AgentConfig
	want uint64
}{
	{"ddpg", func() AgentConfig { return DefaultAgentConfig(10) }, 0x67ac26bb6b29fa61},
	{"td3", func() AgentConfig {
		cfg := DefaultAgentConfig(10)
		cfg.TwinCritics = true
		cfg.TargetNoise = 0.2
		return cfg
	}, 0xae64a77e812f423b},
	{"batch37", func() AgentConfig {
		cfg := DefaultAgentConfig(10)
		cfg.Batch = 37
		return cfg
	}, 0xf5211e4d7114d448},
}

// goldenDigest trains an agent from cfg for the given number of updates on
// a fixed synthetic experience pool and digests the outcome.
func goldenDigest(cfg AgentConfig, updates int) uint64 {
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(7))
	fillPool(a, rng, 300)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := 0; i < updates; i++ {
		put(a.Update())
	}
	for _, net := range []*nn.Network{a.Actor, a.ActorTarget, a.Critic, a.CriticTarget, a.Critic2, a.Critic2Target} {
		if net == nil {
			continue
		}
		for _, l := range net.Layers {
			for _, w := range l.W.Data {
				put(w)
			}
			for _, b := range l.B {
				put(b)
			}
		}
	}
	state := make([]float64, cfg.StateDim)
	for i := 0; i < 8; i++ {
		for j := range state {
			state[j] = rng.Float64()
		}
		put(a.Act(state))
	}
	return h.Sum64()
}

// TestGoldenUpdatePins checks the pins on the CPU's GEMM kernel and again
// with the AVX2 gate cleared, on the portable Go kernel.
func TestGoldenUpdatePins(t *testing.T) {
	t.Run("cpu", checkGoldenUpdates)
	t.Run("portable", func(t *testing.T) {
		defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
		cpufeat.AVX2 = false
		checkGoldenUpdates(t)
	})
}

func checkGoldenUpdates(t *testing.T) {
	for _, c := range goldenCases {
		if got := goldenDigest(c.cfg(), 200); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
