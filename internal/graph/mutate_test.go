package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// mutTestGraph builds the 4-node graph used across mutation tests:
// 0→1 (0.5), 0→2 (0.25), 1→2 (0.5), 2→3 (0.75), 3→0 (0.1).
func mutTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4, 5)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.25)
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(2, 3, 0.75)
	b.AddEdge(3, 0, 0.1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func collectEdges(g *Graph) []Edge {
	var out []Edge
	g.Edges(func(e Edge) bool { out = append(out, e); return true })
	return out
}

func TestWithMutationsSemantics(t *testing.T) {
	g := mutTestGraph(t)
	ng, err := g.WithMutations([]Mutation{
		{Op: OpEdgeDelete, From: 0, To: 2},
		{Op: OpSetWeight, From: 1, To: 2, P: 0.9},
		{Op: OpAddNode},
		{Op: OpEdgeInsert, From: 4, To: 0, P: 0.3},
		{Op: OpEdgeInsert, From: 0, To: 2, P: 0.6}, // re-insert after delete
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng.N() != 5 || ng.M() != 6 {
		t.Fatalf("mutated graph n=%d m=%d, want n=5 m=6", ng.N(), ng.M())
	}
	want := []Edge{{0, 1, 0.5}, {0, 2, 0.6}, {1, 2, 0.9}, {2, 3, 0.75}, {3, 0, 0.1}, {4, 0, 0.3}}
	got := collectEdges(ng)
	if len(got) != 6 {
		t.Fatalf("edge count = %d, want 6 (%v)", len(got), got)
	}
	for i, e := range want {
		if got[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, got[i], e)
		}
	}
	if ng.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", ng.Epoch())
	}
	// The parent is untouched.
	if g.N() != 4 || g.M() != 5 || g.Epoch() != 0 {
		t.Fatalf("parent modified: n=%d m=%d epoch=%d", g.N(), g.M(), g.Epoch())
	}
	// Lineage chains deterministically from the parent's.
	wantLin := ChainFingerprint(g.EpochLineage(), []Mutation{
		{Op: OpEdgeDelete, From: 0, To: 2},
		{Op: OpSetWeight, From: 1, To: 2, P: 0.9},
		{Op: OpAddNode},
		{Op: OpEdgeInsert, From: 4, To: 0, P: 0.3},
		{Op: OpEdgeInsert, From: 0, To: 2, P: 0.6},
	})
	if ng.EpochLineage() != wantLin {
		t.Fatalf("lineage = %s, want %s", ng.EpochLineage(), wantLin)
	}
	// Content fingerprint equals a from-scratch build of the same edges.
	b := NewBuilder(5, 6)
	for _, e := range want {
		b.AddEdge(e.From, e.To, e.P)
	}
	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ng.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("mutated fingerprint differs from an equivalent from-scratch build")
	}
}

func TestWithMutationsValidation(t *testing.T) {
	g := mutTestGraph(t)
	cases := [][]Mutation{
		nil, // empty batch
		{{Op: OpEdgeInsert, From: 0, To: 1, P: 0.5}},                             // exists
		{{Op: OpEdgeDelete, From: 1, To: 0}},                                     // missing
		{{Op: OpSetWeight, From: 3, To: 1, P: 0.5}},                              // missing
		{{Op: OpEdgeInsert, From: 2, To: 2, P: 0.5}},                             // self-loop
		{{Op: OpEdgeInsert, From: 0, To: 9, P: 0.5}},                             // out of range
		{{Op: OpEdgeInsert, From: 1, To: 3, P: 1.5}},                             // bad probability
		{{Op: OpSetWeight, From: 0, To: 1, P: -0.1}},                             // bad probability
		{{Op: MutOp(99), From: 0, To: 1, P: 0.5}},                                // unknown op
		{{Op: OpEdgeDelete, From: 0, To: 1}, {Op: OpEdgeDelete, From: 0, To: 1}}, // double delete
	}
	for i, ms := range cases {
		if _, err := g.WithMutations(ms); err == nil {
			t.Errorf("case %d: WithMutations(%v) succeeded, want error", i, ms)
		}
	}
	// All-or-nothing: the failed batches left g untouched.
	if g.M() != 5 || g.Epoch() != 0 {
		t.Fatalf("failed batch modified graph: m=%d epoch=%d", g.M(), g.Epoch())
	}
}

// TestMutateAfterMmapLoad covers deriving from a read-only mapping: a
// structural batch on a graph loaded from an OPIMG2 mmap must build the
// child on the heap without writing (or faulting on) the mapped pages, and
// must leave the mapped parent readable and the file on disk untouched.
func TestMutateAfterMmapLoad(t *testing.T) {
	g := mutTestGraph(t)
	origFP := g.Fingerprint()
	path := filepath.Join(t.TempDir(), "g.opimg2")
	if err := SaveFileCSR(path, g); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Mapped() {
		t.Skip("mmap path unavailable on this platform/build; COW not exercisable")
	}
	child, err := loaded.WithMutations([]Mutation{
		{Op: OpEdgeDelete, From: 2, To: 3},
		{Op: OpEdgeInsert, From: 1, To: 3, P: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if child.Mapped() || child.SharesTopology(loaded) {
		t.Fatalf("child of a structural batch reads the mapping (Mapped %v, shares topology %v); it must live on the heap",
			child.Mapped(), child.SharesTopology(loaded))
	}
	// The parent stays mapped and readable at epoch 0 with its content.
	if !loaded.Mapped() || loaded.Epoch() != 0 || loaded.Fingerprint() != origFP {
		t.Fatalf("parent changed: Mapped %v, epoch %d, fingerprint %s (want true, 0, %s)",
			loaded.Mapped(), loaded.Epoch(), loaded.Fingerprint(), origFP)
	}
	if from, _ := loaded.InNeighbors(3); len(from) != 1 || from[0] != 2 {
		t.Fatalf("parent InNeighbors(3) = %v, want [2]", from)
	}
	// Traversals over the child work after the mapping is released (they
	// would fault if the child still aliased it).
	loaded.Close()
	from, p := child.InNeighbors(3)
	if len(from) != 1 || from[0] != 1 || p[0] != 0.4 {
		t.Fatalf("child InNeighbors(3) = %v %v, want [1] [0.4]", from, p)
	}
	if child.Epoch() != 1 {
		t.Fatalf("child epoch = %d, want 1", child.Epoch())
	}
	// The backing file is untouched.
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, onDisk) {
		t.Fatalf("backing file changed by mutation (read error %v)", err)
	}
}

func TestChainFingerprintOrderMatters(t *testing.T) {
	a := []Mutation{{Op: OpEdgeDelete, From: 0, To: 2}, {Op: OpSetWeight, From: 0, To: 1, P: 0.9}}
	b := []Mutation{{Op: OpSetWeight, From: 0, To: 1, P: 0.9}, {Op: OpEdgeDelete, From: 0, To: 2}}
	if ChainFingerprint("x", a) == ChainFingerprint("x", b) {
		t.Fatal("chain hash ignores op order")
	}
	if ChainFingerprint("x", a) != ChainFingerprint("x", a) {
		t.Fatal("chain hash not deterministic")
	}
	if ChainFingerprint("x", a) == ChainFingerprint("y", a) {
		t.Fatal("chain hash ignores parent lineage")
	}
}
