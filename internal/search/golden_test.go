package search

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"autohet/internal/cpufeat"
	"autohet/internal/dnn"
	"autohet/internal/xbar"
)

// Golden pin for a short VGG16 AutoHet search: the digest of every round's
// RUE, the winning strategy and the evaluation count. The learner's speed
// work must leave all three unchanged.
const (
	goldenHistory = 0x5685b8738d934bd6
	goldenBest    = "L1:288x256 L2-L16:576x512"
	goldenEvals   = 17
)

// TestGoldenAutoHetPin checks the pin on the CPU's GEMM kernel and again
// with the AVX2 gate cleared, on the portable Go kernel.
func TestGoldenAutoHetPin(t *testing.T) {
	t.Run("cpu", checkGoldenAutoHet)
	t.Run("portable", func(t *testing.T) {
		defer func(saved bool) { cpufeat.AVX2 = saved }(cpufeat.AVX2)
		cpufeat.AVX2 = false
		checkGoldenAutoHet(t)
	})
}

func checkGoldenAutoHet(t *testing.T) {
	env := testEnv(t, dnn.VGG16(), xbar.DefaultCandidates(), true)
	opts := DefaultOptions()
	opts.Rounds = 12
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range res.History {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.RUE))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != goldenHistory {
		t.Errorf("history digest %#x, want %#x", got, goldenHistory)
	}
	if got := fmt.Sprint(res.Best); got != goldenBest {
		t.Errorf("best %q, want %q", got, goldenBest)
	}
	if res.Stats.Evals != goldenEvals {
		t.Errorf("evals %d, want %d", res.Stats.Evals, goldenEvals)
	}
}
