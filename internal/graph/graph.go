// Package graph provides the compact directed-graph representation shared by
// every algorithm in this library.
//
// A Graph stores both the out-adjacency (used by forward IC/LT cascade
// simulation) and the in-adjacency (used by reverse influence sampling) in
// CSR (compressed sparse row) form, with one float32 propagation probability
// per directed edge. Node identifiers are dense int32 values in [0, N).
//
// A Graph is immutable once built or loaded; all sampling algorithms may
// share one Graph across goroutines without synchronization. Dynamic-graph
// callers evolve a graph through mutation batches (mutate.go):
// WithMutations derives a new Graph and leaves the parent untouched. Each
// batch advances the derived graph's epoch and lineage (see Epoch,
// EpochLineage).
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// NodeID identifies a node; ids are dense in [0, N).
type NodeID = int32

// Edge is one directed edge ⟨From, To⟩ with propagation probability P,
// the probability that From activates To (IC), or From's weight in To's
// threshold sum (LT).
type Edge struct {
	From, To NodeID
	P        float32
}

// Graph is an immutable directed graph in CSR form.
type Graph struct {
	n int32
	m int64

	// Out-adjacency: edges leaving node u are
	// outTo[outOff[u]:outOff[u+1]] with probabilities outP[...].
	outOff []int64
	outTo  []int32
	outP   []float32

	// In-adjacency: edges entering node v are
	// inFrom[inOff[v]:inOff[v+1]] with probabilities inP[...].
	inOff  []int64
	inFrom []int32
	inP    []float32

	// inPSum[v] = Σ_{u∈in(v)} p(u,v), precomputed for the LT reverse walk's
	// stopping probability 1 − Σp.
	inPSum []float32

	// fp caches Fingerprint's content hash (nil until first computed); the
	// CSR arrays it covers never change after the graph is built.
	fp atomic.Pointer[string]

	// epoch counts the mutation batches applied since the graph was built
	// or loaded (0 for a pristine graph), and lineage is the epoch-chain
	// hash over (parent lineage, mutation batch) — see mutate.go. Together
	// with the content fingerprint they version the graph's identity for
	// checkpoints and fleet leases.
	epoch   int64
	lineage string

	// unmap releases the mmap backing the CSR slices, if any (set only by
	// the mmap load path; see csr.go / mmap_unix.go). It is registered as a
	// GC finalizer, so dropping the last reference to a mapped Graph is
	// always safe; Close only accelerates the release.
	unmap func()

	// topoParent pins the graph that owns this graph's topology arrays.
	// A weight-only WithMutations shares outOff/outTo/inOff/inFrom with its
	// parent epoch (see mutate.go); if that parent is mmap-backed, its GC
	// finalizer would otherwise unmap the arrays while this child still
	// reads them. Always the root of a sharing chain, so a long run of
	// weight-only epochs keeps exactly one ancestor alive, not every
	// intermediate probability column.
	topoParent *Graph
}

// topoRoot returns the graph that owns this graph's topology arrays: g
// itself unless g shares them with an ancestor.
func (g *Graph) topoRoot() *Graph {
	if g.topoParent != nil {
		return g.topoParent
	}
	return g
}

// SharesTopology reports whether g's topology arrays (offsets and targets)
// are shared with — not copied from — the given ancestor's. True exactly
// when g descends from ancestor through weight-only mutation batches.
func (g *Graph) SharesTopology(ancestor *Graph) bool {
	return g != ancestor && g.topoRoot() == ancestor.topoRoot()
}

// Mapped reports whether this Graph's CSR arrays alias a read-only file
// mapping instead of heap memory. Behaviour is identical either way; the
// distinction matters only for memory accounting and Close.
func (g *Graph) Mapped() bool { return g.unmap != nil }

// Close releases the file mapping backing a Mapped graph immediately
// instead of waiting for the garbage collector. After Close every accessor
// on g is invalid. Calling Close on an unmapped graph, or twice, is a
// no-op. Long-lived processes that cycle many graphs (the opimd catalog)
// can rely on the finalizer instead — that path can never unmap memory a
// concurrent reader still holds.
func (g *Graph) Close() error {
	if u := g.unmap; u != nil {
		g.unmap = nil
		u()
	}
	return nil
}

// Epoch returns the number of mutation batches applied since the graph
// was built or loaded from disk. A pristine graph is epoch 0.
func (g *Graph) Epoch() int64 { return g.epoch }

// EpochLineage returns the epoch-chain hash identifying this graph's
// mutation history: the content fingerprint for an epoch-0 graph, and
// ChainFingerprint(parent lineage, batch) after each mutation. Two graphs
// share a lineage exactly when they share a base graph and an identical
// sequence of mutation batches.
func (g *Graph) EpochLineage() string {
	if g.lineage == "" {
		return g.Fingerprint()
	}
	return g.lineage
}

// AdoptEpochIdentity stamps a loaded graph with an externally recorded
// epoch and lineage. Graph files (OPIMG2, text) carry content, not
// history, so a snapshot of a mutated graph reloads at epoch 0; the
// holder of the mutation journal re-applies the identity it recorded at
// snapshot time.
// Valid only on a graph whose identity has not already diverged (epoch 0).
func (g *Graph) AdoptEpochIdentity(epoch int64, lineage string) error {
	if g.epoch != 0 || g.lineage != "" {
		return fmt.Errorf("graph: AdoptEpochIdentity on non-pristine graph (epoch %d)", g.epoch)
	}
	if epoch < 0 {
		return fmt.Errorf("graph: AdoptEpochIdentity with negative epoch %d", epoch)
	}
	g.epoch, g.lineage = epoch, lineage
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int32 { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int64 { return g.m }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int32 {
	return int32(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int32 {
	return int32(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the targets and probabilities of u's out-edges.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) ([]int32, []float32) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outTo[lo:hi], g.outP[lo:hi]
}

// InNeighbors returns the sources and probabilities of v's in-edges.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) ([]int32, []float32) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inFrom[lo:hi], g.inP[lo:hi]
}

// InWeightSum returns Σ_{u∈in(v)} p(u,v).
func (g *Graph) InWeightSum(v NodeID) float32 { return g.inPSum[v] }

// OutEdgeIndex returns the dense out-CSR position of the directed edge
// ⟨from,to⟩, or −1 when the edge does not exist (or from is out of range).
// Positions are stable for a fixed topology — weight-only epochs keep
// them — which lets per-edge side tables (learn's posteriors) index by
// edge position instead of hashing endpoint pairs.
func (g *Graph) OutEdgeIndex(from, to NodeID) int64 {
	if from < 0 || from >= g.n {
		return -1
	}
	return g.outEdgeIndex(from, to)
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is ready for use after SetN, or grow implicitly via AddEdge.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes and capacity hint
// for m edges.
func NewBuilder(n int32, mHint int) *Builder {
	return &Builder{n: n, edges: make([]Edge, 0, mHint)}
}

// SetN declares the node count; node ids must be in [0, n). Growing is
// allowed; shrinking below an already-seen id is caught at Build time.
func (b *Builder) SetN(n int32) { b.n = n }

// N returns the current node count.
func (b *Builder) N() int32 { return b.n }

// AddEdge records the directed edge ⟨from, to⟩ with probability p, growing
// the node count as needed.
func (b *Builder) AddEdge(from, to NodeID, p float32) {
	if from >= b.n {
		b.n = from + 1
	}
	if to >= b.n {
		b.n = to + 1
	}
	b.edges = append(b.edges, Edge{From: from, To: to, P: p})
}

// ErrInvalidEdge reports an edge referencing a node outside [0, N), a
// self-loop, or a probability outside [0, 1].
var ErrInvalidEdge = errors.New("graph: invalid edge")

// Build validates and freezes the accumulated edges into an immutable
// Graph. Duplicate ⟨from,to⟩ pairs are merged by noisy-or of their
// probabilities: p = 1 − (1−p1)(1−p2), matching how parallel influence
// channels combine under IC. Self-loops are rejected.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	for _, e := range b.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("%w: ⟨%d,%d⟩ outside [0,%d)", ErrInvalidEdge, e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("%w: self-loop at node %d", ErrInvalidEdge, e.From)
		}
		if e.P < 0 || e.P > 1 || e.P != e.P /* NaN */ {
			return nil, fmt.Errorf("%w: probability %v on ⟨%d,%d⟩", ErrInvalidEdge, e.P, e.From, e.To)
		}
	}

	// Sort by (From, To) to group duplicates and lay out CSR runs. pdqsort
	// detects already-sorted input (WithMutations' merged stream) in one
	// pass. slices.SortFunc runs the same pdqsort as sort.Slice, so
	// duplicates reach the order-sensitive float32 noisy-or below in the
	// same order and fingerprints stay put (TestBuildGoldenFingerprint).
	slices.SortFunc(b.edges, compareEdges)

	// Merge duplicates in place.
	merged := b.edges[:0]
	for _, e := range b.edges {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.From == e.From && last.To == e.To {
				last.P = 1 - (1-last.P)*(1-e.P)
				continue
			}
		}
		merged = append(merged, e)
	}

	m := int64(len(merged))
	g := &Graph{
		n:      n,
		m:      m,
		outOff: make([]int64, n+1),
		outTo:  make([]int32, m),
		outP:   make([]float32, m),
		inOff:  make([]int64, n+1),
		inFrom: make([]int32, m),
		inP:    make([]float32, m),
		inPSum: make([]float32, n),
	}

	// Out CSR: merged is already sorted by From.
	for _, e := range merged {
		g.outOff[e.From+1]++
	}
	for i := int32(0); i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	for i, e := range merged {
		g.outTo[i] = e.To
		g.outP[i] = e.P
		_ = i
	}

	// In CSR via counting sort on To.
	for _, e := range merged {
		g.inOff[e.To+1]++
	}
	for i := int32(0); i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.inOff[:n])
	for _, e := range merged {
		pos := cursor[e.To]
		cursor[e.To]++
		g.inFrom[pos] = e.From
		g.inP[pos] = e.P
	}
	for v := int32(0); v < n; v++ {
		var sum float64
		lo, hi := g.inOff[v], g.inOff[v+1]
		for i := lo; i < hi; i++ {
			sum += float64(g.inP[i])
		}
		g.inPSum[v] = float32(sum)
	}
	b.edges = nil // builder is spent
	return g, nil
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// ValidateLT checks the LT-model precondition that every node's incoming
// probabilities sum to at most 1 (within tol). It returns the first
// offending node, or −1 and nil if the graph is LT-valid.
func (g *Graph) ValidateLT(tol float64) (NodeID, error) {
	for v := int32(0); v < g.n; v++ {
		if float64(g.inPSum[v]) > 1+tol {
			return v, fmt.Errorf("graph: node %d has incoming probability sum %v > 1", v, g.inPSum[v])
		}
	}
	return -1, nil
}

// Edges calls fn for every edge in (From, To) order; it stops early if fn
// returns false. Intended for serialization and tests, not hot paths.
func (g *Graph) Edges(fn func(Edge) bool) {
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			if !fn(Edge{From: u, To: g.outTo[i], P: g.outP[i]}) {
				return
			}
		}
	}
}

// Stats summarizes a graph for reporting (Table 2 analogue).
type Stats struct {
	N         int32
	M         int64
	AvgOutDeg float64
	MaxOutDeg int32
	MaxInDeg  int32
	// Isolated counts nodes with neither in- nor out-edges.
	Isolated int32
}

// ComputeStats derives summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{N: g.n, M: g.m}
	if g.n > 0 {
		s.AvgOutDeg = float64(g.m) / float64(g.n)
	}
	for u := int32(0); u < g.n; u++ {
		od, id := g.OutDegree(u), g.InDegree(u)
		if od > s.MaxOutDeg {
			s.MaxOutDeg = od
		}
		if id > s.MaxInDeg {
			s.MaxInDeg = id
		}
		if od == 0 && id == 0 {
			s.Isolated++
		}
	}
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}
