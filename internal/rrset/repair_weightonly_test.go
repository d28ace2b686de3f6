package rrset

import (
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
)

// weightOnlyBatch derives a deterministic weight-only batch over a
// minority of g's edges. Weights only shrink, so weighted-cascade graphs
// stay LT-valid (incoming sums can only decrease).
func weightOnlyBatch(t *testing.T, g *graph.Graph) []graph.Mutation {
	t.Helper()
	var ms []graph.Mutation
	i := 0
	g.Edges(func(e graph.Edge) bool {
		switch i % 13 {
		case 0:
			ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P / 2})
		case 7:
			ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P * 0.9})
		}
		i++
		return true
	})
	if !graph.IsWeightOnly(ms) {
		t.Fatal("fixture batch is not weight-only")
	}
	return ms
}

// TestRepairWeightOnlyMatchesFromScratch: after a weight-only batch
// (applied through the graph's structural-sharing fast path), Repair must
// be byte-identical — pool, offsets, index, per-set and cumulative γ,
// serialized frame — to resampling the whole collection from scratch on
// the mutated graph, across both diffusion models and several worker
// counts.
func TestRepairWeightOnlyMatchesFromScratch(t *testing.T) {
	g := repairTestGraph(t)
	ms := weightOnlyBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if !mg.SharesTopology(g) {
		t.Fatal("weight-only batch did not take the structural-sharing fast path")
	}
	const count = 600
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s0 := NewSampler(g, model)
		s1 := NewSampler(mg, model)
		want := NewCollection(mg.N())
		Generate(want, s1, count, rng.New(99), 4)
		for _, workers := range []int{1, 3, 8} {
			c := NewCollection(g.N())
			Generate(c, s0, count, rng.New(99), workers)
			invalid := c.InvalidatedBy(ms)
			if len(invalid) == 0 || len(invalid) >= count {
				t.Fatalf("%v: invalidation not partial: %d of %d", model, len(invalid), count)
			}
			if n := c.Repair(s1, rng.New(99), invalid, workers); n != len(invalid) {
				t.Fatalf("%v: Repair regenerated %d, want %d", model, n, len(invalid))
			}
			requireIdenticalFull(t, want, c, model.String()+"/weight-only/workers="+itoa(workers))
		}
	}
}

// requireNoOpRepair applies ms — a batch whose mutated graph has the same
// content as g, so every invalidated set resamples to its existing bytes —
// and requires Repair to leave the pool and every index slice
// pointer-untouched, counting every regenerated set as unchanged, while
// staying byte-identical to a from-scratch run on the mutated graph.
func requireNoOpRepair(t *testing.T, g *graph.Graph, ms []graph.Mutation) {
	t.Helper()
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Fingerprint() != g.Fingerprint() {
		t.Fatal("fixture batch changed the graph's content")
	}
	const count = 500
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.IC), count, rng.New(42), 4)
	invalid := c.InvalidatedBy(ms)
	if len(invalid) == 0 {
		t.Fatal("fixture invalidated nothing")
	}
	poolPtr := &c.pool[0]
	idxPtrs := make(map[int32]*int32)
	for v := int32(0); v < c.N(); v++ {
		if len(c.index[v]) > 0 {
			idxPtrs[v] = &c.index[v][0]
		}
	}
	unch0 := mRepairUnchanged.Value()
	c.Repair(NewSampler(mg, diffusion.IC), rng.New(42), invalid, 4)
	if d := mRepairUnchanged.Value() - unch0; d != int64(len(invalid)) {
		t.Fatalf("rrset_repair_unchanged_total advanced by %d, want %d", d, len(invalid))
	}
	if &c.pool[0] != poolPtr {
		t.Fatal("pool reallocated although no set changed")
	}
	for v, p := range idxPtrs {
		if &c.index[v][0] != p {
			t.Fatalf("index slice for node %d reallocated although no set changed", v)
		}
	}
	want := NewCollection(mg.N())
	Generate(want, NewSampler(mg, diffusion.IC), count, rng.New(42), 4)
	requireIdenticalFull(t, want, c, "no-op repair")
}

// TestRepairWeightOnlyNoOpKeepsArrays: a batch that rewrites weights to
// their current values is a real epoch advance with a guaranteed-identical
// outcome, so Repair must move nothing.
func TestRepairWeightOnlyNoOpKeepsArrays(t *testing.T) {
	g := repairTestGraph(t)
	var ms []graph.Mutation
	i := 0
	g.Edges(func(e graph.Edge) bool {
		if i%9 == 0 {
			ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P})
		}
		i++
		return true
	})
	requireNoOpRepair(t, g, ms)
}

// TestRepairStructuralNoOpKeepsArrays is the same contract for a batch
// that is not weight-only: deleting edges and re-inserting them with their
// current probability changes no set, so Repair must move nothing either.
func TestRepairStructuralNoOpKeepsArrays(t *testing.T) {
	g := repairTestGraph(t)
	var ms []graph.Mutation
	i := 0
	g.Edges(func(e graph.Edge) bool {
		if i%9 == 0 {
			ms = append(ms,
				graph.Mutation{Op: graph.OpEdgeDelete, From: e.From, To: e.To},
				graph.Mutation{Op: graph.OpEdgeInsert, From: e.From, To: e.To, P: e.P})
		}
		i++
		return true
	})
	requireNoOpRepair(t, g, ms)
}

// TestRepairWeightOnlyMultiBatchCatchUp: a collection that missed several
// weight-only epochs catches up with one repair of their concatenation,
// exactly like the structural multi-batch contract.
func TestRepairWeightOnlyMultiBatchCatchUp(t *testing.T) {
	g := repairTestGraph(t)
	ms1 := weightOnlyBatch(t, g)
	g1, err := g.WithMutations(ms1)
	if err != nil {
		t.Fatal(err)
	}
	ms2 := weightOnlyBatch(t, g1)
	g2, err := g1.WithMutations(ms2)
	if err != nil {
		t.Fatal(err)
	}
	const count = 500
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.LT), count, rng.New(5), 4)
	invalid := c.InvalidatedBy(append(append([]graph.Mutation(nil), ms1...), ms2...))
	c.Repair(NewSampler(g2, diffusion.LT), rng.New(5), invalid, 4)
	want := NewCollection(g2.N())
	Generate(want, NewSampler(g2, diffusion.LT), count, rng.New(5), 4)
	requireIdenticalFull(t, want, c, "weight-only two-batch catch-up")
}
