package graph

import (
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
)

func TestIsWeightOnly(t *testing.T) {
	if IsWeightOnly(nil) {
		t.Fatal("empty batch reported weight-only")
	}
	if !IsWeightOnly([]Mutation{{Op: OpSetWeight, From: 0, To: 1, P: 0.5}}) {
		t.Fatal("pure set_weight batch not reported weight-only")
	}
	if IsWeightOnly([]Mutation{
		{Op: OpSetWeight, From: 0, To: 1, P: 0.5},
		{Op: OpEdgeDelete, From: 0, To: 2},
	}) {
		t.Fatal("mixed batch reported weight-only")
	}
	if IsWeightOnly([]Mutation{{Op: OpAddNode}}) {
		t.Fatal("node_add batch reported weight-only")
	}
}

// TestWeightOnlySharesTopology pins the structural-sharing contract: a
// weight-only epoch aliases the parent's offset/target arrays (pointer
// equality, not value equality) and copies only the probability columns.
func TestWeightOnlySharesTopology(t *testing.T) {
	g := mutTestGraph(t)
	ms := []Mutation{
		{Op: OpSetWeight, From: 0, To: 1, P: 0.9},
		{Op: OpSetWeight, From: 2, To: 3, P: 0.01},
	}
	ng, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if &ng.outOff[0] != &g.outOff[0] || &ng.outTo[0] != &g.outTo[0] {
		t.Fatal("out-CSR topology arrays were copied, want shared")
	}
	if &ng.inOff[0] != &g.inOff[0] || &ng.inFrom[0] != &g.inFrom[0] {
		t.Fatal("in-CSR topology arrays were copied, want shared")
	}
	if &ng.outP[0] == &g.outP[0] || &ng.inP[0] == &g.inP[0] || &ng.inPSum[0] == &g.inPSum[0] {
		t.Fatal("probability columns are shared, want copied")
	}
	if !ng.SharesTopology(g) || g.SharesTopology(g) {
		t.Fatal("SharesTopology misreports the sharing relation")
	}
	// The parent's weights are untouched.
	if _, p := g.OutNeighbors(0); p[0] != 0.5 {
		t.Fatalf("parent weight mutated: %v", p[0])
	}
	if ng.Epoch() != g.Epoch()+1 || ng.EpochLineage() != ChainFingerprint(g.EpochLineage(), ms) {
		t.Fatal("weight-only epoch chain differs from the general contract")
	}
}

// TestWeightOnlyIdenticalToRebuild drives random weight-only batches
// through the fast path and checks every derived field is bit-identical to
// a from-scratch Build of the mutated edge list — including inP slot order
// and the float64-accumulated inPSum.
func TestWeightOnlyIdenticalToRebuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	b := NewBuilder(50, 400)
	for i := 0; i < 400; i++ {
		u, v := int32(rnd.Intn(50)), int32(rnd.Intn(50))
		if u == v {
			continue
		}
		b.AddEdge(u, v, rnd.Float32())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	edges := collectEdges(g)
	for trial := 0; trial < 20; trial++ {
		var ms []Mutation
		for i := 0; i < 1+rnd.Intn(30); i++ {
			e := edges[rnd.Intn(len(edges))]
			ms = append(ms, Mutation{Op: OpSetWeight, From: e.From, To: e.To, P: rnd.Float32()})
		}
		fast, err := g.WithMutations(ms)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: rebuild from the mutated edge list (last write wins,
		// exactly the batch's sequential semantics).
		final := make(map[int64]float32)
		for _, m := range ms {
			final[edgeKey(m.From, m.To)] = m.P
		}
		rb := NewBuilder(g.N(), len(edges))
		for _, e := range edges {
			p := e.P
			if np, ok := final[edgeKey(e.From, e.To)]; ok {
				p = np
			}
			rb.AddEdge(e.From, e.To, p)
		}
		ref, err := rb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if fast.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("trial %d: fast-path fingerprint differs from rebuild", trial)
		}
		for i := range fast.inP {
			if fast.inP[i] != ref.inP[i] {
				t.Fatalf("trial %d: inP[%d] = %v, want %v", trial, i, fast.inP[i], ref.inP[i])
			}
		}
		for v := range fast.inPSum {
			if fast.inPSum[v] != ref.inPSum[v] {
				t.Fatalf("trial %d: inPSum[%d] = %v, want %v (not bit-identical to Build)", trial, v, fast.inPSum[v], ref.inPSum[v])
			}
		}
	}
}

// TestWeightOnlyChainPinsRoot checks a run of weight-only epochs pins the
// root of the sharing chain, not each intermediate epoch: child-of-child
// still aliases the original arrays and reports SharesTopology with both
// ancestors.
func TestWeightOnlyChainPinsRoot(t *testing.T) {
	g := mutTestGraph(t)
	e1, err := g.WithMutations([]Mutation{{Op: OpSetWeight, From: 0, To: 1, P: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e1.WithMutations([]Mutation{{Op: OpSetWeight, From: 0, To: 1, P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.topoParent != g {
		t.Fatal("grandchild pins intermediate epoch, want the root")
	}
	if !e2.SharesTopology(g) || !e2.SharesTopology(e1) {
		t.Fatal("sharing relation not transitive across the chain")
	}
	if &e2.outTo[0] != &g.outTo[0] {
		t.Fatal("grandchild topology not aliased to root")
	}
	if e2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", e2.Epoch())
	}
}

// TestWeightOnlyValidation mirrors the general path's all-or-nothing
// validation on the fast path.
func TestWeightOnlyValidation(t *testing.T) {
	g := mutTestGraph(t)
	cases := [][]Mutation{
		{{Op: OpSetWeight, From: 1, To: 0, P: 0.5}},  // missing edge
		{{Op: OpSetWeight, From: 0, To: 9, P: 0.5}},  // out of range
		{{Op: OpSetWeight, From: 2, To: 2, P: 0.5}},  // self-loop
		{{Op: OpSetWeight, From: 0, To: 1, P: 1.5}},  // bad probability
		{{Op: OpSetWeight, From: 0, To: 1, P: -0.1}}, // bad probability
		{
			{Op: OpSetWeight, From: 0, To: 1, P: 0.5},
			{Op: OpSetWeight, From: 3, To: 1, P: 0.5}, // second op invalid
		},
	}
	for i, ms := range cases {
		if _, err := g.WithMutations(ms); !errors.Is(err, ErrInvalidMutation) {
			t.Errorf("case %d: err = %v, want ErrInvalidMutation", i, err)
		}
	}
	if g.Epoch() != 0 {
		t.Fatal("failed weight-only batch advanced the parent epoch")
	}
}

// TestWeightOnlyRepeatedEdgeLastWins: batches apply sequentially, so two
// set_weight ops on one edge resolve to the later one.
func TestWeightOnlyRepeatedEdgeLastWins(t *testing.T) {
	g := mutTestGraph(t)
	ng, err := g.WithMutations([]Mutation{
		{Op: OpSetWeight, From: 0, To: 1, P: 0.2},
		{Op: OpSetWeight, From: 0, To: 1, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, p := ng.OutNeighbors(0); p[0] != 0.8 {
		t.Fatalf("out weight = %v, want 0.8 (last write wins)", p[0])
	}
	from, p := ng.InNeighbors(1)
	if from[0] != 0 || p[0] != 0.8 {
		t.Fatalf("in weight = %v, want 0.8", p[0])
	}
}

// TestWeightOnlyOverMmapKeepsMappingAlive loads a graph via mmap, derives a
// weight-only child, drops every reference to the parent, and forces GC:
// the child's pinned topoParent must keep the mapping alive, so traversals
// keep working instead of faulting on unmapped pages.
func TestWeightOnlyOverMmapKeepsMappingAlive(t *testing.T) {
	g := mutTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.opimg2")
	if err := SaveFileCSR(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Mapped() {
		t.Skip("mmap path unavailable on this platform/build")
	}
	child, err := loaded.WithMutations([]Mutation{{Op: OpSetWeight, From: 0, To: 1, P: 0.33}})
	if err != nil {
		t.Fatal(err)
	}
	loaded = nil // drop the only direct reference to the mapped parent
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	// Walk every edge through the (mapped) shared topology.
	var m int
	child.Edges(func(Edge) bool { m++; return true })
	if m != 5 {
		t.Fatalf("edge walk over shared mmap topology saw %d edges, want 5", m)
	}
	if _, p := child.OutNeighbors(0); p[0] != 0.33 {
		t.Fatalf("mutated weight = %v, want 0.33", p[0])
	}
}

func TestAdoptEpochIdentity(t *testing.T) {
	g := mutTestGraph(t)
	if err := g.AdoptEpochIdentity(3, "abc"); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 3 || g.EpochLineage() != "abc" {
		t.Fatalf("identity = (%d, %s), want (3, abc)", g.Epoch(), g.EpochLineage())
	}
	if err := g.AdoptEpochIdentity(5, "def"); err == nil {
		t.Fatal("second AdoptEpochIdentity succeeded, want error")
	}
	h := mutTestGraph(t)
	if err := h.AdoptEpochIdentity(-1, "x"); err == nil {
		t.Fatal("negative epoch accepted")
	}
}
