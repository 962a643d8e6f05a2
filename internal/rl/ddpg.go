package rl

import (
	"fmt"
	"math/rand"

	"autohet/internal/mat"
	"autohet/internal/nn"
)

// AgentConfig collects the DDPG hyperparameters.
type AgentConfig struct {
	StateDim int
	Hidden   int     // width of the two hidden layers in actor and critic
	ActorLR  float64 // Adam step size for the actor
	CriticLR float64 // Adam step size for the critic
	Gamma    float64 // discount
	Tau      float64 // soft target-update rate
	Sigma    float64 // initial OU exploration sigma
	// SigmaDecay multiplies sigma once per episode (EndEpisode) and
	// SigmaMin floors it, so exploration anneals as the search converges.
	// Zero values select the paper schedule (0.99 decay to a 0.02 floor).
	SigmaDecay float64
	SigmaMin   float64
	Capacity   int // experience-pool capacity
	Batch      int // minibatch size per update
	Seed       int64

	// TD3 extensions (Fujimoto et al., 2018), opt-in. TwinCritics enables
	// clipped double-Q targets: two critics trained on the same batches,
	// targets take min(Q1', Q2'); the actor updates only every PolicyDelay
	// steps against Critic 1; target actions get clipped Gaussian noise of
	// scale TargetNoise (smoothing). All zero values keep plain DDPG.
	TwinCritics bool
	PolicyDelay int
	TargetNoise float64
}

// DefaultAgentConfig returns hyperparameters that converge on all the paper
// workloads within a few hundred episodes.
func DefaultAgentConfig(stateDim int) AgentConfig {
	return AgentConfig{
		StateDim:   stateDim,
		Hidden:     64,
		ActorLR:    1e-3,
		CriticLR:   1e-2,
		Gamma:      0.6,
		Tau:        0.01,
		Sigma:      0.4,
		SigmaDecay: 0.99,
		SigmaMin:   0.02,
		Capacity:   8192,
		Batch:      64,
		Seed:       1,
	}
}

// Agent is the DDPG actor-critic pair with target networks (paper §3.2).
// The actor maps a state to one deterministic action in (0,1); the critic
// estimates Q(s, a). Not safe for concurrent use.
type Agent struct {
	cfg AgentConfig
	rng *rand.Rand

	Actor        *nn.Network
	ActorTarget  *nn.Network
	Critic       *nn.Network
	CriticTarget *nn.Network
	// Critic2/Critic2Target exist only with cfg.TwinCritics.
	Critic2       *nn.Network
	Critic2Target *nn.Network

	actorOpt   *nn.Adam
	criticOpt  *nn.Adam
	critic2Opt *nn.Adam
	Noise      *OUNoise
	Pool       *Replay

	// Update's buffers, reused by every call: the sampled minibatch, one
	// chunk of critic inputs (state rows then the action row,
	// feature-major), per-sample targets and output gradients, and the
	// chunk positions of non-terminal samples.
	batch    []Transition
	criticIn []float64
	y, grad  []float64
	live     []int
	updates  int
}

// updateChunk is the most samples Update pushes through a network at once.
// 32 fills the GEMM kernel's widest column block while keeping the shared
// batch scratch small.
const updateChunk = 32

// NewAgent builds a DDPG agent. Targets start as copies of the online
// networks.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.StateDim <= 0 {
		panic(fmt.Sprintf("rl: state dim %d", cfg.StateDim))
	}
	// Zero-value sigma schedule selects the paper defaults; this also
	// normalizes configs gob-decoded from saves that predate the fields.
	if cfg.SigmaDecay == 0 {
		cfg.SigmaDecay = 0.99
	}
	if cfg.SigmaMin == 0 {
		cfg.SigmaMin = 0.02
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	actor := nn.NewNetwork(rng, cfg.StateDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: 1, Act: nn.Sigmoid},
	)
	critic := nn.NewNetwork(rng, cfg.StateDim+1,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: 1, Act: nn.Linear},
	)
	a := &Agent{
		cfg:          cfg,
		rng:          rng,
		Actor:        actor,
		ActorTarget:  actor.Clone(),
		Critic:       critic,
		CriticTarget: critic.Clone(),
		actorOpt:     nn.NewAdam(actor, cfg.ActorLR),
		criticOpt:    nn.NewAdam(critic, cfg.CriticLR),
		Noise:        NewOUNoise(rng, cfg.Sigma),
		Pool:         NewReplay(cfg.Capacity),
		batch:        make([]Transition, cfg.Batch),
		criticIn:     make([]float64, (cfg.StateDim+1)*updateChunk),
		y:            make([]float64, updateChunk),
		grad:         make([]float64, updateChunk),
		live:         make([]int, updateChunk),
	}
	if cfg.TwinCritics {
		critic2 := nn.NewNetwork(rng, cfg.StateDim+1,
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
			nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
			nn.LayerSpec{Out: 1, Act: nn.Linear},
		)
		a.Critic2 = critic2
		a.Critic2Target = critic2.Clone()
		a.critic2Opt = nn.NewAdam(critic2, cfg.CriticLR)
		if a.cfg.PolicyDelay < 1 {
			a.cfg.PolicyDelay = 2
		}
	}
	a.shareScratch()
	return a
}

// shareScratch gives every network of one shape a single batch scratch:
// Update runs them one after another, each Backward right after its own
// network's Forward.
func (a *Agent) shareScratch() {
	a.ActorTarget.ShareScratch(a.Actor)
	a.CriticTarget.ShareScratch(a.Critic)
	if a.Critic2 != nil {
		a.Critic2.ShareScratch(a.Critic)
		a.Critic2Target.ShareScratch(a.Critic)
	}
}

// Act returns the deterministic policy action for state, in (0,1).
func (a *Agent) Act(state []float64) float64 {
	return a.Actor.Forward(state)[0]
}

// ActNoisy returns the policy action perturbed by OU exploration noise,
// clamped to [0,1].
func (a *Agent) ActNoisy(state []float64) float64 {
	return mat.Clamp(a.Act(state)+a.Noise.Sample(), 0, 1)
}

// Remember stores a transition in the experience pool.
func (a *Agent) Remember(t Transition) { a.Pool.Add(t) }

// loadStates writes the chunk's states — next states with next — into the
// state rows of criticIn, feature-major, and returns the critic input for
// the loaded samples. live lists the chunk positions to load; nil loads
// every sample.
func (a *Agent) loadStates(ts []Transition, live []int, next bool) []float64 {
	n, dim := len(ts), a.cfg.StateDim
	if live != nil {
		n = len(live)
	}
	in := a.criticIn[:(dim+1)*n]
	for c := 0; c < n; c++ {
		t := &ts[c]
		if live != nil {
			t = &ts[live[c]]
		}
		st := t.State
		if next {
			st = t.NextState
		}
		for f, v := range st[:dim] {
			in[f*n+c] = v
		}
	}
	return in
}

// qTargets sets a.y[s] = r + γ(1−done)·Q'(s', μ'(s')) for every sample of
// the chunk. With twin critics the target is the clipped-double-Q minimum
// over both target critics, and the target action carries clipped
// smoothing noise, drawn in sample order.
func (a *Agent) qTargets(ts []Transition) {
	live := a.live[:0]
	for s, t := range ts {
		a.y[s] = t.Reward
		if !t.Done {
			live = append(live, s)
		}
	}
	n, dim := len(live), a.cfg.StateDim
	if n == 0 {
		return
	}
	in := a.loadStates(ts, live, true)
	na := a.ActorTarget.ForwardBatch(in[:dim*n], n)
	for c := range live {
		act := na[c]
		if a.cfg.TwinCritics && a.cfg.TargetNoise > 0 {
			noise := mat.Clamp(a.rng.NormFloat64()*a.cfg.TargetNoise, -2*a.cfg.TargetNoise, 2*a.cfg.TargetNoise)
			act = mat.Clamp(act+noise, 0, 1)
		}
		in[dim*n+c] = act
	}
	q := a.grad[:n] // Q' staging; the critic step's gradients come later
	copy(q, a.CriticTarget.ForwardBatch(in, n))
	if a.cfg.TwinCritics {
		for c, q2 := range a.Critic2Target.ForwardBatch(in, n) {
			if q2 < q[c] {
				q[c] = q2
			}
		}
	}
	for c, s := range live {
		a.y[s] = ts[s].Reward + a.cfg.Gamma*q[c]
	}
}

// Update samples one minibatch from the pool and performs one critic step,
// one actor step, and a soft target update. It returns the critic's mean
// squared TD error over the batch. It is a no-op returning 0 until the pool
// holds at least one batch of experience.
//
// The batch runs through the networks in chunks of up to updateChunk
// samples. Gradients still accumulate sample by sample in batch order, so
// the result is bit-identical to one Forward/Backward pair per sample;
// gradients nobody reads (the critic's parameters during the actor step,
// any network's input except the actor step's action column) are never
// computed.
func (a *Agent) Update() float64 {
	if a.Pool.Len() < a.cfg.Batch {
		return 0
	}
	batch := a.Pool.SampleInto(a.rng, a.batch)
	dim := a.cfg.StateDim

	// Critics: minimize (Q(s,a) − y)² (both critics see the same targets).
	a.Critic.ZeroGrad()
	if a.Critic2 != nil {
		a.Critic2.ZeroGrad()
	}
	var tdSum float64
	for lo := 0; lo < len(batch); lo += updateChunk {
		ts := batch[lo:min(lo+updateChunk, len(batch))]
		n := len(ts)
		a.qTargets(ts)
		in := a.loadStates(ts, nil, false)
		for s, t := range ts {
			in[dim*n+s] = t.Action
		}
		grad := a.grad[:n]
		for s, q := range a.Critic.ForwardBatch(in, n) {
			td := q - a.y[s]
			tdSum += td * td
			grad[s] = td
		}
		a.Critic.BackwardBatch(grad, true, 0, 0)
		if a.Critic2 != nil {
			for s, q2 := range a.Critic2.ForwardBatch(in, n) {
				grad[s] = q2 - a.y[s]
			}
			a.Critic2.BackwardBatch(grad, true, 0, 0)
		}
	}
	a.criticOpt.Step(a.Critic, a.cfg.Batch)
	if a.Critic2 != nil {
		a.critic2Opt.Step(a.Critic2, a.cfg.Batch)
	}
	a.updates++

	// Actor (delayed with twin critics): ascend ∇_a Q1(s, μ(s))·∇_θ μ(s).
	// The critic pass only probes dQ/da, so it skips parameter gradients
	// and every input gradient but the action's.
	if a.Critic2 == nil || a.updates%a.cfg.PolicyDelay == 0 {
		a.Actor.ZeroGrad()
		for lo := 0; lo < len(batch); lo += updateChunk {
			ts := batch[lo:min(lo+updateChunk, len(batch))]
			n := len(ts)
			in := a.loadStates(ts, nil, false)
			copy(in[dim*n:], a.Actor.ForwardBatch(in[:dim*n], n))
			a.Critic.ForwardBatch(in, n)
			grad := a.grad[:n]
			for s := range grad {
				grad[s] = 1
			}
			for s, dQda := range a.Critic.BackwardBatch(grad, false, dim, dim+1) {
				grad[s] = -dQda // minimize −Q
			}
			a.Actor.BackwardBatch(grad, true, 0, 0)
		}
		a.actorOpt.Step(a.Actor, a.cfg.Batch)

		// Soft target tracking, on the actor's cadence.
		a.ActorTarget.SoftUpdate(a.Actor, a.cfg.Tau)
		a.CriticTarget.SoftUpdate(a.Critic, a.cfg.Tau)
		if a.Critic2 != nil {
			a.Critic2Target.SoftUpdate(a.Critic2, a.cfg.Tau)
		}
	}
	return tdSum / float64(a.cfg.Batch)
}

// Updates reports how many minibatch updates have run.
func (a *Agent) Updates() int { return a.updates }

// StartEpisode resets the exploration noise to its mean so the episode's
// first action is not biased by residual state — from the previous episode
// of this search, or from a warm-started agent's earlier life. Search loops
// call it at the top of every episode; it is idempotent.
func (a *Agent) StartEpisode() { a.Noise.Reset() }

// EndEpisode decays the exploration magnitude on the configured schedule
// (paper default: ×0.99 per episode, floored at 0.02) and resets the noise
// state for the next episode.
func (a *Agent) EndEpisode() {
	a.Noise.Decay(a.cfg.SigmaDecay, a.cfg.SigmaMin)
	a.Noise.Reset()
}
