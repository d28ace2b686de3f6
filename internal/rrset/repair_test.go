package rrset

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
)

func repairTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(300, 4, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mutationBatch derives a deterministic batch touching a minority of g's
// edges: deletes, weight halvings, and inserts that recycle a deleted
// edge's freed in-probability (so weighted-cascade graphs stay LT-valid —
// every node's incoming sum stays ≤ 1).
func mutationBatch(t *testing.T, g *graph.Graph) []graph.Mutation {
	t.Helper()
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool { edges = append(edges, e); return true })
	have := make(map[int64]bool, len(edges))
	key := func(f, to int32) int64 { return int64(f)<<32 | int64(uint32(to)) }
	for _, e := range edges {
		have[key(e.From, e.To)] = true
	}
	var ms []graph.Mutation
	for i, e := range edges {
		switch i % 19 {
		case 0:
			ms = append(ms, graph.Mutation{Op: graph.OpEdgeDelete, From: e.From, To: e.To})
			nf := (e.From + 7) % g.N()
			if nf != e.To && nf != e.From && !have[key(nf, e.To)] {
				ms = append(ms, graph.Mutation{Op: graph.OpEdgeInsert, From: nf, To: e.To, P: e.P})
				have[key(nf, e.To)] = true
			}
		case 5:
			ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P / 2})
		}
	}
	if len(ms) == 0 {
		t.Fatal("mutation batch came out empty")
	}
	return ms
}

// requireIdenticalFull is requireIdentical plus the per-set γ block — the
// full byte-identity Repair promises, including serialized form.
func requireIdenticalFull(t *testing.T, want, got *Collection, label string) {
	t.Helper()
	requireIdentical(t, want, got, label)
	if !reflect.DeepEqual(want.exam, got.exam) {
		t.Fatalf("%s: per-set gamma differs", label)
	}
	var a, b bytes.Buffer
	if err := WriteCollection(&a, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteCollection(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: serialized bytes differ", label)
	}
}

// TestRepairMatchesFromScratch is the repair property test: after a random
// mutation batch, invalidate-and-regenerate must be byte-identical — pool,
// offsets, index, cumulative γ, serialized frame — to resampling the whole
// collection from scratch on the mutated graph with the same seed keys,
// across both diffusion models and several worker counts.
func TestRepairMatchesFromScratch(t *testing.T) {
	g := repairTestGraph(t)
	ms := mutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
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
			requireIdenticalFull(t, want, c, model.String()+"/workers="+itoa(workers))
		}
	}
}

// TestRepairMultiBatchCatchUp: a collection that missed several mutation
// batches catches up with ONE repair of their concatenation — the
// invalidation union computed against its stale membership, regenerated
// on the final graph — because a set no batch invalidated is bitwise
// stable across every intermediate epoch.
func TestRepairMultiBatchCatchUp(t *testing.T) {
	g := repairTestGraph(t)
	ms1 := mutationBatch(t, g)
	g1, err := g.WithMutations(ms1)
	if err != nil {
		t.Fatal(err)
	}
	ms2 := mutationBatch(t, g1)
	g2, err := g1.WithMutations(ms2)
	if err != nil {
		t.Fatal(err)
	}
	const count = 500
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.IC), count, rng.New(5), 4)
	invalid := c.InvalidatedBy(append(append([]graph.Mutation(nil), ms1...), ms2...))
	c.Repair(NewSampler(g2, diffusion.IC), rng.New(5), invalid, 4)
	want := NewCollection(g2.N())
	Generate(want, NewSampler(g2, diffusion.IC), count, rng.New(5), 4)
	requireIdenticalFull(t, want, c, "two-batch catch-up")
}

// TestRepairNodeAddInvalidatesAll: adding a node changes the root draw of
// every set, so the batch invalidates everything and the repaired
// collection matches a from-scratch run on the grown graph — including
// index entries for the new node.
func TestRepairNodeAddInvalidatesAll(t *testing.T) {
	g := repairTestGraph(t)
	ms := []graph.Mutation{
		{Op: graph.OpAddNode},
		{Op: graph.OpEdgeInsert, From: g.N(), To: 0, P: 0.5},
	}
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	const count = 300
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.IC), count, rng.New(13), 2)
	invalid := c.InvalidatedBy(ms)
	if len(invalid) != count {
		t.Fatalf("node add invalidated %d of %d sets", len(invalid), count)
	}
	c.Repair(NewSampler(mg, diffusion.IC), rng.New(13), invalid, 2)
	if c.N() != mg.N() {
		t.Fatalf("collection universe %d, want %d", c.N(), mg.N())
	}
	want := NewCollection(mg.N())
	Generate(want, NewSampler(mg, diffusion.IC), count, rng.New(13), 2)
	requireIdenticalFull(t, want, c, "node add")
}

// TestRepairCostProportionalToInvalidated pins the O(f·θ) acceptance bound
// through the metrics: repairing after a batch that invalidates f% of θ
// sets advances rrset_regenerated_total by f·θ — not by θ — while a
// from-scratch rebuild would advance rrset_generated_total by the full θ.
func TestRepairCostProportionalToInvalidated(t *testing.T) {
	g := repairTestGraph(t)
	ms := mutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	const count = 800
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.IC), count, rng.New(31), 4)
	invalid := c.InvalidatedBy(ms)
	if len(invalid) == 0 || len(invalid) >= count {
		t.Fatalf("invalidation not partial: %d of %d", len(invalid), count)
	}
	inv0, reg0 := mInvalidated.Value(), mRegenerated.Value()
	c.Repair(NewSampler(mg, diffusion.IC), rng.New(31), invalid, 4)
	if d := mInvalidated.Value() - inv0; d != int64(len(invalid)) {
		t.Fatalf("rrset_invalidated_total advanced by %d, want %d", d, len(invalid))
	}
	if d := mRegenerated.Value() - reg0; d != int64(len(invalid)) {
		t.Fatalf("rrset_regenerated_total advanced by %d, want %d (f·θ, not θ=%d)", d, len(invalid), count)
	}
}

// TestSetsCoveringStableAcrossRepair is the aliasing regression test:
// SetsCovering hands out a caller-owned copy (mutating it cannot corrupt
// the index, and it survives a later Repair unchanged), and a stale
// SetsCoveringShared slice still reads the pre-repair ids — never garbage —
// because repair allocates fresh per-node arrays instead of mutating them.
func TestSetsCoveringStableAcrossRepair(t *testing.T) {
	g := repairTestGraph(t)
	ms := mutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(g.N())
	Generate(c, NewSampler(g, diffusion.IC), 500, rng.New(77), 2)

	// A node guaranteed to be invalidated: the target of the batch's first
	// edge op.
	v := ms[0].To
	if c.Degree(v) == 0 {
		t.Fatalf("fixture: node %d covers no sets", v)
	}
	snapshot := append([]int32(nil), c.index[v]...)

	// Mutating the owned copy must not corrupt the index.
	owned := c.SetsCovering(v)
	for i := range owned {
		owned[i] = -999
	}
	if !reflect.DeepEqual(c.SetsCovering(v), snapshot) {
		t.Fatal("mutating a SetsCovering copy corrupted the index")
	}

	held := c.SetsCovering(v)         // caller-held copy across the repair
	shared := c.SetsCoveringShared(v) // stale shared reference across the repair
	c.Repair(NewSampler(mg, diffusion.IC), rng.New(77), c.InvalidatedBy(ms), 2)

	if !reflect.DeepEqual(held, snapshot) {
		t.Fatal("caller-held SetsCovering copy changed under repair")
	}
	if !reflect.DeepEqual(shared, snapshot) {
		t.Fatal("stale SetsCoveringShared slice no longer reads pre-repair ids")
	}

	// The post-repair lists are the ground truth of the repaired pool.
	for u := int32(0); u < c.N(); u++ {
		var want []int32
		for id := int32(0); int(id) < c.Count(); id++ {
			for _, m := range c.Set(id) {
				if m == u {
					want = append(want, id)
					break
				}
			}
		}
		if !reflect.DeepEqual(c.SetsCovering(u), want) {
			t.Fatalf("post-repair index wrong at node %d", u)
		}
	}
}

// TestSerializePerSetGamma: the OPIMR3 frame round-trips per-set γ.
func TestSerializePerSetGamma(t *testing.T) {
	c, _ := sampleCollection(t)
	if len(c.exam) != c.Count() {
		t.Fatal("generated collection lost per-set gamma")
	}
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("OPIMR3\n")) {
		t.Fatalf("collection wrote magic %q", buf.Bytes()[:7])
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.exam, c.exam) {
		t.Fatal("per-set gamma did not round-trip")
	}
}
