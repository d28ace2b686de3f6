// Package learn closes the feedback loop of online influence maximization
// (Lei et al., "Online Influence Maximization"): the true edge activation
// probabilities are unknown; each served campaign returns an activation
// trace (which edges were tried, which fired), and a per-edge Beta(α,β)
// posterior accumulates those Bernoulli outcomes. Rounds alternate
// explore — run OPIM on a graph realization Thompson-sampled from the
// posterior — and exploit — run it on the posterior mean. Either
// realization enters the system as an ordinary weight-only mutation epoch
// (graph.IsWeightOnly), so journaling, checkpoints, fleet leases and
// incremental RR repair all apply to learning rounds unchanged.
package learn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
)

// mObservations counts every Bernoulli outcome folded into any posterior
// (obs.Default(), see docs/OBSERVABILITY.md). The per-session learning
// gauges are the server's.
var mObservations = obs.Default().Counter("learn_observations_total")

// ErrUnknownEdge reports an observation naming an edge the topology does
// not contain — a malformed trace, or one from a different graph.
var ErrUnknownEdge = errors.New("learn: observation on unknown edge")

// Attempt is one Bernoulli trial from an observed cascade: From, active,
// took its chance on To and succeeded or not. diffusion.RunICTrace emits
// exactly this shape for simulated "real worlds".
type Attempt struct {
	From    graph.NodeID `json:"from"`
	To      graph.NodeID `json:"to"`
	Success bool         `json:"success"`
}

// Posterior holds one independent Beta(α,β) posterior per directed edge of
// a fixed topology, indexed by the edge's dense out-CSR position
// (graph.OutEdgeIndex) — positions that weight-only epochs preserve, so
// one Posterior serves an entire campaign's chain of realizations. The
// prior is the uniform Beta(1,1). Not safe for concurrent use.
type Posterior struct {
	g            *graph.Graph // topology anchor: any epoch of the fixed-edge-set chain
	alpha        []float64
	beta         []float64
	observations int64
}

// NewPosterior returns the uniform-prior posterior over g's edges.
func NewPosterior(g *graph.Graph) *Posterior {
	m := g.M()
	p := &Posterior{g: g, alpha: make([]float64, m), beta: make([]float64, m)}
	for i := range p.alpha {
		p.alpha[i] = 1
		p.beta[i] = 1
	}
	return p
}

// Observe folds one Bernoulli outcome on edge ⟨from,to⟩ into its
// posterior: success increments α, failure increments β.
func (p *Posterior) Observe(from, to graph.NodeID, success bool) error {
	idx := p.g.OutEdgeIndex(from, to)
	if idx < 0 {
		return fmt.Errorf("%w: ⟨%d,%d⟩", ErrUnknownEdge, from, to)
	}
	if success {
		p.alpha[idx]++
	} else {
		p.beta[idx]++
	}
	p.observations++
	mObservations.Inc()
	return nil
}

// ObserveBatch folds a whole trace. It is all-or-nothing: the first
// unknown edge aborts with no attempt applied, so a rejected observation
// request cannot half-update the posterior.
func (p *Posterior) ObserveBatch(atts []Attempt) error {
	for _, a := range atts {
		if p.g.OutEdgeIndex(a.From, a.To) < 0 {
			return fmt.Errorf("%w: ⟨%d,%d⟩", ErrUnknownEdge, a.From, a.To)
		}
	}
	for _, a := range atts {
		if err := p.Observe(a.From, a.To, a.Success); err != nil {
			return err // unreachable after the pre-check
		}
	}
	return nil
}

// Observations returns the total number of Bernoulli outcomes folded in.
func (p *Posterior) Observations() int64 { return p.observations }

// Mean returns the posterior mean α/(α+β) of the edge at out-CSR position
// idx.
func (p *Posterior) Mean(idx int64) float64 {
	return p.alpha[idx] / (p.alpha[idx] + p.beta[idx])
}

// Entropy returns the mean Beta differential entropy across edges: 0 at
// the uniform prior, decreasing as cascades concentrate the posteriors.
func (p *Posterior) Entropy() float64 {
	if len(p.alpha) == 0 {
		return 0
	}
	var sum float64
	for i := range p.alpha {
		sum += betaEntropy(p.alpha[i], p.beta[i])
	}
	return sum / float64(len(p.alpha))
}

// checkTopology verifies cur belongs to the posterior's fixed-topology
// chain (same node and edge counts; weight-only epochs preserve both).
func (p *Posterior) checkTopology(cur *graph.Graph) error {
	if cur.N() != p.g.N() || cur.M() != p.g.M() {
		return fmt.Errorf("learn: graph n=%d m=%d does not match posterior topology n=%d m=%d",
			cur.N(), cur.M(), p.g.N(), p.g.M())
	}
	return nil
}

// realize walks cur's edges in out-CSR order, asks want for each edge's
// target probability, and returns the weight-only batch that moves cur to
// those targets — edges already at their target are skipped, so replaying
// a realization against a graph already realized produces an empty batch
// (the idempotence the crash-retry path relies on).
func (p *Posterior) realize(cur *graph.Graph, want func(idx int64) float64) ([]graph.Mutation, error) {
	if err := p.checkTopology(cur); err != nil {
		return nil, err
	}
	var ms []graph.Mutation
	var idx int64
	for u := int32(0); u < cur.N(); u++ {
		to, pr := cur.OutNeighbors(u)
		for i := range to {
			np := float32(want(idx))
			if np != pr[i] {
				ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: u, To: to[i], P: np})
			}
			idx++
		}
	}
	return ms, nil
}

// MeanRealization returns the weight-only batch that sets every edge of
// cur to its posterior mean — the exploit round's graph. An empty batch
// means cur already is the mean realization.
func (p *Posterior) MeanRealization(cur *graph.Graph) ([]graph.Mutation, error) {
	return p.realize(cur, p.Mean)
}

// SampleRealization Thompson-samples one activation probability per edge
// from its posterior and returns the weight-only batch realizing the draw
// on cur — the explore round's graph. Exactly one Beta draw per edge is
// taken from src in out-CSR order, regardless of cur's current weights,
// so the realization depends only on (posterior, src state).
func (p *Posterior) SampleRealization(cur *graph.Graph, src *rng.Source) ([]graph.Mutation, error) {
	draws := make([]float64, len(p.alpha))
	for i := range draws {
		draws[i] = SampleBeta(src, p.alpha[i], p.beta[i])
	}
	return p.realize(cur, func(idx int64) float64 { return draws[idx] })
}

// MeanAbsError returns the mean absolute difference between posterior
// means and the edge weights of truth — the convergence measure the
// end-to-end campaign test asserts strictly decreases. truth must share
// the posterior's topology.
func (p *Posterior) MeanAbsError(truth *graph.Graph) (float64, error) {
	if err := p.checkTopology(truth); err != nil {
		return 0, err
	}
	if truth.M() == 0 {
		return 0, nil
	}
	var sum float64
	var idx int64
	for u := int32(0); u < truth.N(); u++ {
		to, pr := truth.OutNeighbors(u)
		for i := range to {
			sum += math.Abs(p.Mean(idx) - float64(pr[i]))
			idx++
		}
	}
	return sum / float64(truth.M()), nil
}

// posteriorMagic versions the serialized posterior table.
const posteriorMagic = "OPIML1\n"

// appendBinary serializes the posterior: magic, n, m, observation count,
// then the α and β tables. The encoding is deterministic, so identical
// posteriors serialize to identical bytes (part of the checkpoint
// byte-identity contract).
func (p *Posterior) appendBinary(b []byte) []byte {
	b = append(b, posteriorMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.g.N()))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.g.M()))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.observations))
	for _, a := range p.alpha {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
	}
	for _, v := range p.beta {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// posteriorSize is the serialized length for m edges.
func posteriorSize(m int64) int { return len(posteriorMagic) + 4 + 8 + 8 + int(16*m) }

// unmarshalPosterior decodes a posterior serialized by appendBinary,
// binding it to g (which must match the recorded topology shape), and
// returns the remaining bytes.
func unmarshalPosterior(b []byte, g *graph.Graph) (*Posterior, []byte, error) {
	if len(b) < len(posteriorMagic)+20 || string(b[:len(posteriorMagic)]) != posteriorMagic {
		return nil, nil, fmt.Errorf("learn: bad posterior magic")
	}
	b = b[len(posteriorMagic):]
	n := int32(binary.LittleEndian.Uint32(b[0:4]))
	m := int64(binary.LittleEndian.Uint64(b[4:12]))
	observations := int64(binary.LittleEndian.Uint64(b[12:20]))
	b = b[20:]
	if n != g.N() || m != g.M() {
		return nil, nil, fmt.Errorf("learn: posterior is for topology n=%d m=%d, graph has n=%d m=%d", n, m, g.N(), g.M())
	}
	if int64(len(b)) < 16*m {
		return nil, nil, fmt.Errorf("learn: short posterior table")
	}
	p := &Posterior{g: g, alpha: make([]float64, m), beta: make([]float64, m), observations: observations}
	for i := range p.alpha {
		p.alpha[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	b = b[8*m:]
	for i := range p.beta {
		p.beta[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return p, b[8*m:], nil
}
