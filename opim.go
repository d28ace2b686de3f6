// Package opim is a Go implementation of "Online Processing Algorithms for
// Influence Maximization" (Tang, Tang, Xiao, Yuan — SIGMOD 2018).
//
// It provides:
//
//   - OPIM — online processing of influence maximization: a pausable
//     session that streams random reverse-reachable (RR) sets and, at any
//     point, returns a seed set together with an instance-specific
//     approximation guarantee α holding with probability ≥ 1−δ.
//   - OPIM-C — the extension to conventional influence maximization:
//     given (k, ε, δ), return a (1−1/e−ε)-approximate size-k seed set with
//     probability ≥ 1−δ, typically with far fewer samples than IMM.
//   - The baselines the paper evaluates against (Borgs et al.'s OPIM, IMM,
//     SSA-Fix, D-SSA-Fix) and the full experiment harness regenerating the
//     paper's figures, under ./cmd and ./internal.
//
// RR-set collections are built by a sharded parallel pipeline (sampling,
// pool merge and inverted-index construction all run across workers) that
// is byte-identical for every worker count, and coverage/selection queries
// run on reusable epoch-marked scratch, so sessions allocate nothing on the
// snapshot hot path. Set Options.Workers (≤ 0 means GOMAXPROCS) to control
// parallelism.
//
// # Quick start
//
//	g, _ := opim.GenerateProfile("synth-pokec", 0, 1)
//	sampler := opim.NewSampler(g, opim.IC)
//	res, _ := opim.Maximize(sampler, 50, 0.1, 0.01, opim.Options{Variant: opim.Plus})
//	fmt.Println(res.Seeds, res.Alpha)
//
// Or interactively:
//
//	session, _ := opim.NewOnline(sampler, opim.Options{K: 50, Delta: 0.01, Variant: opim.Plus})
//	for session.NumRR() < 1e6 {
//		session.Advance(10000)
//		snap := session.Snapshot()
//		if snap.Alpha >= 0.8 { break } // user is satisfied
//	}
package opim

import (
	"io"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/heuristic"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// Graph is an immutable directed influence graph in CSR form.
type Graph = graph.Graph

// Edge is one directed edge with its propagation probability.
type Edge = graph.Edge

// Builder accumulates edges into a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for n nodes with an edge-capacity hint.
func NewBuilder(n int32, mHint int) *Builder { return graph.NewBuilder(n, mHint) }

// WeightScheme names an edge-probability assignment rule.
type WeightScheme = graph.WeightScheme

// Weight schemes for Reweight.
const (
	// WeightedCascade sets p(u,v) = 1/indeg(v), the paper's §8.1 setting.
	WeightedCascade = graph.WeightedCascade
	// Uniform sets a constant probability on every edge.
	Uniform = graph.Uniform
	// Trivalency draws each probability from {0.1, 0.01, 0.001}.
	Trivalency = graph.Trivalency
)

// Reweight returns a copy of g with probabilities reassigned by scheme.
func Reweight(g *Graph, scheme WeightScheme, p float64, seed uint64) (*Graph, error) {
	return graph.Reweight(g, scheme, p, seed)
}

// LoadGraph reads a graph from an OPIMG2 or text edge-list file.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes g to an OPIMG2 file.
func SaveGraph(path string, g *Graph) error { return graph.SaveFileCSR(path, g) }

// GenerateProfile produces one of the built-in synthetic dataset profiles
// ("synth-pokec", "synth-orkut", "synth-livejournal", "synth-twitter"),
// scaled down from the original dataset size by scale (0 = the profile
// default), with weighted-cascade probabilities.
func GenerateProfile(name string, scale int32, seed uint64) (*Graph, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(scale, seed)
}

// ProfileNames lists the built-in synthetic dataset profiles.
func ProfileNames() []string {
	names := make([]string, len(gen.Profiles))
	for i, p := range gen.Profiles {
		names[i] = p.Name
	}
	return names
}

// Model selects the diffusion model.
type Model = diffusion.Model

// Supported diffusion models.
const (
	// IC is the independent cascade model.
	IC = diffusion.IC
	// LT is the linear threshold model.
	LT = diffusion.LT
)

// Estimate is a Monte-Carlo spread estimate.
type Estimate = diffusion.Estimate

// EstimateSpread estimates σ(seeds) by averaging runs Monte-Carlo cascade
// simulations (the paper uses 10 000), parallelized over workers
// (0 = GOMAXPROCS). Deterministic for fixed (seed, runs).
func EstimateSpread(g *Graph, model Model, seeds []int32, runs int, seed uint64, workers int) Estimate {
	return diffusion.EstimateSpread(g, model, seeds, runs, seed, workers)
}

// Sampler draws random RR sets on one graph under one diffusion model; it
// is immutable and shared by all algorithms run on the same input.
type Sampler = rrset.Sampler

// NewSampler builds a Sampler (for LT this precomputes per-node alias
// tables in O(n+m)).
func NewSampler(g *Graph, model Model) *Sampler { return rrset.NewSampler(g, model) }

// TriggeringDistribution samples the random triggering sets of the general
// triggering model [Kempe et al. 2003]; members must be in-neighbors of v
// with no duplicates. trigger.NewIC and trigger.NewLT are built-ins; any
// user implementation extends every algorithm here to that model.
type TriggeringDistribution = rrset.TriggeringDistribution

// NewHopSampler builds a Sampler for the HOP-LIMITED spread σ_h: RR sets
// are truncated at maxHops reverse steps, so every algorithm optimizes and
// certifies expected activations within maxHops rounds of the seeds (the
// hop-based objective family; evaluate with a hop-limited simulation).
func NewHopSampler(g *Graph, model Model, maxHops int) *Sampler {
	return rrset.NewSamplerHops(g, model, maxHops)
}

// NewTriggeringSampler builds a Sampler over an arbitrary triggering
// distribution, so OPIM and OPIM-C run on any triggering model (the
// generality under which the paper states Theorem 6.4).
func NewTriggeringSampler(g *Graph, dist TriggeringDistribution) *Sampler {
	return rrset.NewSamplerTriggering(g, dist)
}

// TopDegree returns the k nodes of largest out-degree — a guarantee-free
// baseline useful for sanity checks.
func TopDegree(g *Graph, k int) []int32 { return heuristic.TopDegree(g, k) }

// TopPageRank returns the k nodes of largest PageRank (damping 0.85).
// PageRank ranks authority; for seed selection prefer TopReversePageRank.
func TopPageRank(g *Graph, k int) []int32 { return heuristic.TopPageRank(g, k) }

// TopReversePageRank returns the k nodes of largest PageRank on the
// transposed graph — the influence-relevant PageRank heuristic.
func TopReversePageRank(g *Graph, k int) ([]int32, error) {
	return heuristic.TopReversePageRank(g, k)
}

// DegreeDiscount returns k seeds via the degree-discount IC heuristic of
// Chen et al. (KDD 2009) with uniform probability p.
func DegreeDiscount(g *Graph, k int, p float64) []int32 {
	return heuristic.DegreeDiscount(g, k, p)
}

// Variant selects how the optimum upper bound σᵘ(S°) is derived.
type Variant = core.Variant

// Guarantee variants, named as in the paper.
const (
	// Vanilla is OPIM⁰ (eq. 8).
	Vanilla = core.Vanilla
	// Plus is OPIM⁺ (eq. 13) — recommended; never worse than Vanilla.
	Plus = core.Plus
	// Prime is OPIM′ (eq. 15).
	Prime = core.Prime
)

// Options configures NewOnline and Maximize.
type Options = core.Options

// Generator produces a session's RR sets. The default is in-process
// sampling (LocalGenerator); a fleet coordinator distributing generation
// over worker processes plugs in here (Options.Generator) without the
// session observing any difference — the determinism contract makes the
// two byte-identical.
type Generator = core.Generator

// LocalGenerator is the default Generator: in-process sampling.
type LocalGenerator = core.LocalGenerator

// Online is a pausable OPIM session.
type Online = core.Online

// Snapshot is one paused answer: a seed set plus its guarantee.
type Snapshot = core.Snapshot

// NewOnline starts an OPIM session on the sampler's graph.
func NewOnline(sampler *Sampler, opts Options) (*Online, error) {
	return core.NewOnline(sampler, opts)
}

// SaveSession serializes a paused Online session as its recipe — options,
// query counter, RR-set counts and a checksum of each half — in a few
// hundred bytes; neither the RR sets nor the graph are saved (LoadSession
// requires an equivalent sampler).
func SaveSession(w io.Writer, o *Online) error { return core.SaveSession(w, o) }

// LoadSession restores a session saved by SaveSession onto a sampler built
// over the same graph and model, regenerating every RR set — a load costs
// about the original sampling. A resumed session continues the exact
// sample stream of the original: save → load → Advance is byte-identical
// to never pausing.
func LoadSession(r io.Reader, sampler *Sampler) (*Online, error) {
	return core.LoadSession(r, sampler)
}

// EventSink receives the structured events emitted through
// Options.Events: one "snapshot" event per Online.Snapshot and one
// "round" + final "maximize" event per Maximize run, each carrying the
// paper quantities (θ1, θ2, Λ1, Λ2, σˡ, σᵘ, α) at that instant. See
// docs/OBSERVABILITY.md for the event catalogue.
type EventSink = obs.Sink

// JSONLEventSink writes events as JSON Lines (one object per line).
type JSONLEventSink = obs.JSONLSink

// NewJSONLEventSink wraps w in a JSON Lines event sink; the caller
// retains ownership of w (Close only flushes).
func NewJSONLEventSink(w io.Writer) *JSONLEventSink { return obs.NewJSONLSink(w) }

// CreateJSONLEventSink creates (or truncates) path and returns a sink
// that owns the file: Close flushes and closes it.
func CreateJSONLEventSink(path string) (*JSONLEventSink, error) { return obs.CreateJSONL(path) }

// MetricsRegistry is a namespace of process metrics (counters, gauges,
// timers) with JSON and text exposition.
type MetricsRegistry = obs.Registry

// Metrics returns the process-wide metrics registry that the library's
// hot paths report into (RR-set generation throughput, latest-snapshot
// guarantee gauges) and that opimd's GET /metrics exposes.
func Metrics() *MetricsRegistry { return obs.Default() }

// CResult is the outcome of one OPIM-C run.
type CResult = core.CResult

// Maximize runs OPIM-C (Algorithm 2): conventional influence maximization
// with a (1−1/e−ε) guarantee holding with probability ≥ 1−δ. opts.K and
// opts.Delta are overridden by the explicit parameters.
func Maximize(sampler *Sampler, k int, eps, delta float64, opts Options) (*CResult, error) {
	return core.Maximize(sampler, k, eps, delta, opts)
}
