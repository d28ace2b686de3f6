package opim

// One benchmark per table and figure of the paper's evaluation (§8), each
// driving the same code path as `imbench -exp <id>` at a reduced scale so
// `go test -bench=.` completes in minutes. Full-scale regeneration:
//
//	go run ./cmd/imbench -exp all
//
// The benchmark names map to the per-experiment index in DESIGN.md §4.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/reprolab/opim/internal/bound"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/experiments"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// benchConfig is the reduced-scale configuration used by every figure
// bench: ~2k-node graphs, 1 repetition, small checkpoint ladder.
func benchConfig() experiments.Config {
	c := experiments.Default()
	c.Scale = 20000
	c.Reps = 1
	c.MCRuns = 1000
	c.Checkpoints = []int64{1000, 2000, 4000, 8000}
	c.K = 20
	c.EpsGrid = []float64{0.3, 0.2}
	return c
}

func BenchmarkFig1DeltaSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1(io.Discard)
	}
}

func benchOnline(b *testing.B, model diffusion.Model) {
	b.Helper()
	c := benchConfig()
	g, err := GenerateProfile("synth-pokec", c.Scale, c.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunOnline(g, model, c.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ApproxLT(b *testing.B) { benchOnline(b, diffusion.LT) }
func BenchmarkFig4ApproxIC(b *testing.B) { benchOnline(b, diffusion.IC) }

func benchVaryK(b *testing.B, model diffusion.Model) {
	b.Helper()
	c := benchConfig()
	g, err := GenerateProfile("synth-twitter", 80000, c.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 10, 100} {
			if _, err := c.RunOnline(g, model, k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3VaryK_LT(b *testing.B) { benchVaryK(b, diffusion.LT) }
func BenchmarkFig5VaryK_IC(b *testing.B) { benchVaryK(b, diffusion.IC) }

func benchConventional(b *testing.B, model diffusion.Model) {
	b.Helper()
	c := benchConfig()
	g, err := GenerateProfile("synth-twitter", 80000, c.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunConventional(g, model, 5_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ConventionalLT(b *testing.B) { benchConventional(b, diffusion.LT) }
func BenchmarkFig7ConventionalIC(b *testing.B) { benchConventional(b, diffusion.IC) }

// BenchmarkTab1VariantCost isolates the per-snapshot guarantee-computation
// cost of the three OPIM variants on a fixed sample collection — the
// complexity ablation of Table 1 (Vanilla O(Σ|R|), Plus O(kn+Σ|R|),
// Prime O(n+Σ|R|)).
func BenchmarkTab1VariantCost(b *testing.B) {
	g, err := GenerateProfile("synth-livejournal", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sampler := NewSampler(g, IC)
	for _, v := range []Variant{Vanilla, Plus, Prime} {
		b.Run(v.String(), func(b *testing.B) {
			o, err := NewOnline(sampler, Options{K: 50, Delta: 0.01, Variant: v, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			o.AdvanceTo(16000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Snapshot()
			}
		})
	}
}

// BenchmarkTab2DatasetGen measures synthetic profile generation (the
// dataset-preparation cost behind Table 2).
func BenchmarkTab2DatasetGen(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Generate(p.BaseN/2000, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOPIMCvsIMM measures the paper's headline conventional-IM claim
// (§8.4): OPIM-C generates far fewer RR sets than IMM at equal (ε, δ).
// Reported via the custom metric rr-sets/op.
func BenchmarkOPIMCvsIMM(b *testing.B) {
	g, err := GenerateProfile("synth-pokec", 40000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sampler := NewSampler(g, IC)
	delta := 1 / float64(g.N())
	b.Run("OPIM-C+", func(b *testing.B) {
		var rr int64
		for i := 0; i < b.N; i++ {
			res, err := core.Maximize(sampler, 20, 0.15, delta, core.Options{Variant: core.Plus, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			rr += res.RRGenerated
		}
		b.ReportMetric(float64(rr)/float64(b.N), "rr-sets/op")
	})
	b.Run("greedy-target", func(b *testing.B) {
		// The Lemma 6.1 worst-case sample count IMM must plan for.
		var rr float64
		for i := 0; i < b.N; i++ {
			rr += bound.Lemma61Samples(g.N(), 20, 0.15, delta)
		}
		b.ReportMetric(rr/float64(b.N), "rr-sets/op")
	})
}

// BenchmarkGenerateParallel measures end-to-end sharded construction —
// sampling, pool/offset merge and the parallel inverted-index build — at 1
// and 8 workers over the imbench synthetic workload. The two sub-benchmarks
// produce byte-identical collections (the determinism invariant), so their
// ratio is the pure parallel-construction speedup.
func BenchmarkGenerateParallel(b *testing.B) {
	g, err := GenerateProfile("synth-pokec", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sampler := rrset.NewSampler(g, diffusion.IC)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := rrset.NewCollection(g.N())
				rrset.Generate(c, sampler, 20000, rng.New(uint64(i)), workers)
				_ = c
			}
		})
	}
}

// BenchmarkRRGenerationModels compares IC and LT RR-set generation cost on
// one graph (the sampling substrate both Table 1 and all figures rest on).
func BenchmarkRRGenerationModels(b *testing.B) {
	g, err := GenerateProfile("synth-orkut", 400000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range []Model{IC, LT} {
		b.Run(model.String(), func(b *testing.B) {
			sampler := NewSampler(g, model)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := rrset.NewCollection(g.N())
				rrset.Generate(c, sampler, 1000, rng.New(uint64(i)), 1)
				_ = c
			}
		})
	}
}

// BenchmarkWeightOnlyRepair measures the two layers of the weight-only
// mutation fast path that every learning round rides. Layer one derives
// the mutated graph: a set_weight batch patches the weight arrays and
// shares the CSR topology with its parent, while the equivalent
// delete+insert rebuilds the CSR. Layer two brings a session's RR
// collection up to date after the weights change: Repair resamples exactly
// the invalidated sets, whichever batch kind invalidated them
// (repair/weight-only after the set_weight batch, repair/generic after the
// equivalent delete+insert), while the full-rebuild baseline — what a
// server without incremental repair pays — regenerates the entire
// collection from scratch. All three produce byte-identical collections,
// so the ratios are pure fast-path speedups.
func BenchmarkWeightOnlyRepair(b *testing.B) {
	g, err := GenerateProfile("synth-pokec", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return len(edges) < 64
	})
	// A gentle nudge — the shape of a learning round's realization epoch,
	// where a Thompson sample lands near the posterior mean: most
	// invalidated sets resample to the bytes they already hold.
	fwd := make([]graph.Mutation, len(edges))
	back := make([]graph.Mutation, len(edges))
	rebuild := make([]graph.Mutation, 0, 2*len(edges))
	for i, e := range edges {
		fwd[i] = graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P * 0.98}
		back[i] = graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P}
		rebuild = append(rebuild,
			graph.Mutation{Op: graph.OpEdgeDelete, From: e.From, To: e.To},
			graph.Mutation{Op: graph.OpEdgeInsert, From: e.From, To: e.To, P: e.P * 0.98},
		)
	}

	b.Run("derive/weight-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.WithMutations(fwd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive/rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.WithMutations(rebuild); err != nil {
				b.Fatal(err)
			}
		}
	})

	gf, err := g.WithMutations(fwd)
	if err != nil {
		b.Fatal(err)
	}
	s0 := rrset.NewSampler(g, diffusion.IC)
	sf := rrset.NewSampler(gf, diffusion.IC)
	const numRR = 20000
	// Each iteration applies the mutation and immediately reverts it, so
	// every repair sees a non-empty invalidation set from the collection's
	// current state.
	repairBench := func(batch []graph.Mutation) func(b *testing.B) {
		return func(b *testing.B) {
			base := rng.New(7)
			c := rrset.NewCollection(g.N())
			rrset.Generate(c, s0, numRR, base, 8)
			b.ResetTimer()
			var repaired int64
			for i := 0; i < b.N; i++ {
				repaired += int64(c.Repair(sf, base, c.InvalidatedBy(batch), 1))
				repaired += int64(c.Repair(s0, base, c.InvalidatedBy(back), 1))
			}
			b.ReportMetric(float64(repaired)/float64(2*b.N), "repaired-sets/op")
		}
	}
	b.Run("repair/weight-only", repairBench(fwd))
	b.Run("repair/generic", repairBench(rebuild))
	b.Run("repair/full-rebuild", func(b *testing.B) {
		base := rng.New(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf := rrset.NewCollection(g.N())
			rrset.Generate(cf, sf, numRR, base, 1)
			c0 := rrset.NewCollection(g.N())
			rrset.Generate(c0, s0, numRR, base, 1)
		}
		b.ReportMetric(numRR, "repaired-sets/op")
	})
}

// BenchmarkStructuralDerive measures deriving a graph epoch from a
// topology-changing batch on the serve-mutate graph (synth-pokec scale
// 400: n = 4,082, m = 72,836) with that workload's batch shape, 32 inserts
// of non-edges plus 32 deletes of existing edges. derive runs
// WithMutations, which merges the batch's sorted edges into the parent's
// sorted edge stream; build runs Builder.Build over the derived graph's
// edges in a fixed shuffled order, the full sort it avoids. Their ratio is
// machine-independent and gated in CI.
func BenchmarkStructuralDerive(b *testing.B) {
	g, err := GenerateProfile("synth-pokec", 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool { edges = append(edges, e); return true })
	src := rng.New(11)
	perm := make([]int32, len(edges))
	src.Perm(perm)
	var ms []graph.Mutation
	for _, i := range perm[:32] {
		ms = append(ms, graph.Mutation{Op: graph.OpEdgeDelete, From: edges[i].From, To: edges[i].To})
	}
	for inserted := 0; inserted < 32; {
		from, to := src.Int31n(g.N()), src.Int31n(g.N())
		if from != to && g.OutEdgeIndex(from, to) < 0 {
			ms = append(ms, graph.Mutation{Op: graph.OpEdgeInsert, From: from, To: to, P: 0.05})
			inserted++
		}
	}
	mg, err := g.WithMutations(ms)
	if err != nil {
		b.Fatal(err)
	}
	var shuffled []graph.Edge
	mg.Edges(func(e graph.Edge) bool { shuffled = append(shuffled, e); return true })
	src.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	b.Run("derive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.WithMutations(ms); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := graph.NewBuilder(mg.N(), len(shuffled))
			for _, e := range shuffled {
				bl.AddEdge(e.From, e.To, e.P)
			}
			if _, err := bl.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionRestore measures a checkpoint round trip on the
// serve-mutate session shape (synth-pokec scale 400, IC, k = 50, 131,072
// RR sets): generate samples the session from scratch, save writes its
// OPIMS6 checkpoint (the recipe plus a checksum of each half), and load
// restores it, regenerating every set and verifying both checksums. A
// load is the sampling it replays plus the checksums, so generate:load is
// machine-independent and gated in CI.
func BenchmarkSessionRestore(b *testing.B) {
	g, err := GenerateProfile("synth-pokec", 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := rrset.NewSampler(g, diffusion.IC)
	opts := core.Options{K: 50, Delta: 0.1, Variant: core.Plus, Seed: 1}
	const numRR = 1 << 17
	session := func() *core.Online {
		o, err := core.NewOnline(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		o.Advance(numRR)
		return o
	}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			session()
		}
	})
	o := session()
	var ck bytes.Buffer
	if err := core.SaveSession(&ck, o); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.SaveSession(io.Discard, o); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ck.Len()), "bytes")
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LoadSession(bytes.NewReader(ck.Bytes()), s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
