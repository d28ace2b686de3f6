package graph

// Dynamic graphs: a Graph evolves through ordered batches of Mutations.
// WithMutations derives a new Graph from the current one plus a batch; the
// parent is untouched, so in-flight readers of the old epoch stay valid.
// The batch is validated against the sequentially-evolving state (a delete
// followed by an insert of the same edge is legal), the CSR is rebuilt
// through the same canonicalization as Builder.Build (so fingerprints stay
// load-path independent), and the graph's identity advances along an epoch
// chain: epoch k+1's lineage is ChainFingerprint(epoch k's lineage, batch).
// The chain is what lets checkpoints and replicated workers tell "same base
// graph, same mutation history" apart from "same content by coincidence" —
// and what makes a partially applied batch detectable after a crash.
//
// Deriving from an mmap-backed graph never writes the read-only mapping: a
// structural batch builds the child on fresh heap arrays, and a weight-only
// one shares the parent's topology arrays and keeps their owner alive
// (topoParent).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
)

// MutOp enumerates graph mutation operations.
type MutOp uint8

const (
	// OpEdgeInsert adds the directed edge ⟨From,To⟩ with probability P.
	// The edge must not currently exist.
	OpEdgeInsert MutOp = iota + 1
	// OpEdgeDelete removes the directed edge ⟨From,To⟩, which must exist.
	OpEdgeDelete
	// OpSetWeight sets the probability of the existing edge ⟨From,To⟩ to P.
	OpSetWeight
	// OpAddNode appends one node with id N() (the next dense id); From, To
	// and P are ignored. Adding a node changes the RR-set root distribution,
	// so it invalidates every RR set sampled on the graph.
	OpAddNode
)

// String implements fmt.Stringer for diagnostics and wire encoding.
func (op MutOp) String() string {
	switch op {
	case OpEdgeInsert:
		return "edge_insert"
	case OpEdgeDelete:
		return "edge_delete"
	case OpSetWeight:
		return "set_weight"
	case OpAddNode:
		return "node_add"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// ParseMutOp inverts MutOp.String.
func ParseMutOp(s string) (MutOp, error) {
	switch s {
	case "edge_insert":
		return OpEdgeInsert, nil
	case "edge_delete":
		return OpEdgeDelete, nil
	case "set_weight":
		return OpSetWeight, nil
	case "node_add":
		return OpAddNode, nil
	}
	return 0, fmt.Errorf("graph: unknown mutation op %q", s)
}

// Mutation is one element of a mutation batch. Batches apply sequentially:
// each op is validated against the graph as already modified by the ops
// before it.
type Mutation struct {
	Op       MutOp
	From, To NodeID
	P        float32
}

// ErrInvalidMutation reports a mutation that cannot apply: an edge op on a
// missing edge, an insert of an existing edge, an endpoint outside [0, N),
// a self-loop, or a probability outside [0, 1].
var ErrInvalidMutation = fmt.Errorf("graph: invalid mutation")

// chainDomain seeds the epoch-chain hash so a lineage can never collide
// with a content fingerprint or a raw-bytes hash.
const chainDomain = "OPIM-graph-epoch-v1\n"

// ChainFingerprint advances the epoch chain: the lineage of a graph after
// applying ms on a parent whose lineage is parent. The encoding is the
// batch's exact op sequence (order matters — batches apply sequentially),
// so two histories chain-hash equal iff they are the same history.
func ChainFingerprint(parent string, ms []Mutation) string {
	h := sha256.New()
	h.Write([]byte(chainDomain))
	h.Write([]byte(parent))
	var rec [13]byte
	for _, m := range ms {
		rec[0] = byte(m.Op)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(m.From))
		binary.LittleEndian.PutUint32(rec[5:9], uint32(m.To))
		binary.LittleEndian.PutUint32(rec[9:13], floatBits(m.P))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// IsWeightOnly reports whether the batch consists purely of OpSetWeight
// mutations (and is non-empty). Weight-only batches leave the topology —
// node count, edge set, CSR offsets and targets — untouched, which is what
// licenses the structural-sharing fast path in WithMutations.
func IsWeightOnly(ms []Mutation) bool {
	if len(ms) == 0 {
		return false
	}
	for _, m := range ms {
		if m.Op != OpSetWeight {
			return false
		}
	}
	return true
}

// edgeKey packs a directed edge into one comparable value.
func edgeKey(from, to NodeID) int64 { return int64(from)<<32 | int64(uint32(to)) }

// overlayEdge is the batch-local state of one edge: present (with weight p)
// or deleted.
type overlayEdge struct {
	present bool
	p       float32
}

// hasEdge reports whether ⟨from,to⟩ exists in the base CSR (binary search —
// Build keeps each out-row strictly ascending by target).
func (g *Graph) hasEdge(from, to NodeID) bool {
	if from < 0 || from >= g.n {
		return false
	}
	row := g.outTo[g.outOff[from]:g.outOff[from+1]]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= to })
	return i < len(row) && row[i] == to
}

// WithMutations derives a new Graph by applying the batch ms to g. g itself
// is untouched — existing readers (shared samplers, in-flight traversals)
// stay valid on the old epoch — and the result owns fresh heap arrays even
// when g is mmap-backed. The returned graph's epoch is g.Epoch()+1 and its
// lineage chains g's (ChainFingerprint). An invalid batch returns
// ErrInvalidMutation and leaves nothing applied: batches are all-or-nothing.
func (g *Graph) WithMutations(ms []Mutation) (*Graph, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidMutation)
	}
	if IsWeightOnly(ms) {
		return g.withWeightMutations(ms)
	}
	n := g.n
	overlay := make(map[int64]overlayEdge, len(ms))
	exists := func(from, to NodeID) (overlayEdge, bool) {
		if o, ok := overlay[edgeKey(from, to)]; ok {
			return o, o.present
		}
		if g.hasEdge(from, to) {
			return overlayEdge{}, true
		}
		return overlayEdge{}, false
	}
	inserted := 0
	for i, m := range ms {
		switch m.Op {
		case OpAddNode:
			if n == MaxNodes {
				return nil, fmt.Errorf("%w: op %d adds node past MaxNodes", ErrInvalidMutation, i)
			}
			n++
			continue
		case OpEdgeInsert, OpEdgeDelete, OpSetWeight:
		default:
			return nil, fmt.Errorf("%w: op %d has unknown kind %d", ErrInvalidMutation, i, m.Op)
		}
		if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n {
			return nil, fmt.Errorf("%w: op %d edge ⟨%d,%d⟩ outside [0,%d)", ErrInvalidMutation, i, m.From, m.To, n)
		}
		if m.From == m.To {
			return nil, fmt.Errorf("%w: op %d is a self-loop at node %d", ErrInvalidMutation, i, m.From)
		}
		_, has := exists(m.From, m.To)
		switch m.Op {
		case OpEdgeInsert:
			if has {
				return nil, fmt.Errorf("%w: op %d inserts existing edge ⟨%d,%d⟩", ErrInvalidMutation, i, m.From, m.To)
			}
		case OpEdgeDelete, OpSetWeight:
			if !has {
				return nil, fmt.Errorf("%w: op %d (%s) on missing edge ⟨%d,%d⟩", ErrInvalidMutation, i, m.Op, m.From, m.To)
			}
		}
		if m.Op != OpEdgeDelete {
			if m.P < 0 || m.P > 1 || m.P != m.P {
				return nil, fmt.Errorf("%w: op %d probability %v on ⟨%d,%d⟩", ErrInvalidMutation, i, m.P, m.From, m.To)
			}
		}
		switch m.Op {
		case OpEdgeInsert:
			overlay[edgeKey(m.From, m.To)] = overlayEdge{present: true, p: m.P}
			inserted++
		case OpEdgeDelete:
			overlay[edgeKey(m.From, m.To)] = overlayEdge{present: false}
		case OpSetWeight:
			overlay[edgeKey(m.From, m.To)] = overlayEdge{present: true, p: m.P}
		}
	}

	// Rebuild: merge the overlay's sorted keys (O(b log b) for a batch of b
	// ops) into the base edge stream, which Edges yields in (From, To)
	// order, so Build receives sorted edges, which its sort confirms in one
	// pass. It still canonicalizes exactly as every other load path does,
	// so the content fingerprint stays path-invariant.
	keys := make([]int64, 0, len(overlay))
	for k := range overlay {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := NewBuilder(n, int(g.m)+inserted)
	emit := func(k int64) {
		if o := overlay[k]; o.present {
			b.AddEdge(NodeID(k>>32), NodeID(uint32(k)), o.p)
		}
	}
	next := 0
	g.Edges(func(e Edge) bool {
		k := edgeKey(e.From, e.To)
		for ; next < len(keys) && keys[next] < k; next++ {
			emit(keys[next]) // an edge the base lacks: a pure insert
		}
		if next < len(keys) && keys[next] == k {
			emit(k) // a deleted or reweighted base edge
			next++
			return true
		}
		b.AddEdge(e.From, e.To, e.P)
		return true
	})
	for _, k := range keys[next:] {
		emit(k)
	}
	ng, err := b.Build()
	if err != nil {
		// Unreachable after validation above; surface it rather than panic.
		return nil, fmt.Errorf("%w: %v", ErrInvalidMutation, err)
	}
	ng.epoch = g.epoch + 1
	ng.lineage = ChainFingerprint(g.EpochLineage(), ms)
	return ng, nil
}

// outEdgeIndex returns the position of ⟨from,to⟩ in the out-CSR arrays, or
// −1 when the edge does not exist. Build keeps out-rows strictly ascending
// by target, so this is a binary search within one row.
func (g *Graph) outEdgeIndex(from, to NodeID) int64 {
	lo, hi := g.outOff[from], g.outOff[from+1]
	row := g.outTo[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= to })
	if i < len(row) && row[i] == to {
		return lo + int64(i)
	}
	return -1
}

// inEdgeIndex returns the position of ⟨from,to⟩ in the in-CSR arrays, or
// −1 when absent. Build fills in-rows by a counting sort over edges already
// sorted by (From,To), so each in-row ascends strictly by source.
func (g *Graph) inEdgeIndex(from, to NodeID) int64 {
	lo, hi := g.inOff[to], g.inOff[to+1]
	row := g.inFrom[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= from })
	if i < len(row) && row[i] == from {
		return lo + int64(i)
	}
	return -1
}

// withWeightMutations is the weight-only fast path of WithMutations: the
// batch touches no topology, so the derived graph SHARES the parent's
// offset and target arrays (outOff/outTo/inOff/inFrom) and copies only the
// probability columns. No edges are re-sorted, re-merged or re-validated —
// cost is O(m + batch·log deg) instead of the general path's O(m log m)
// rebuild — yet the result is field-for-field identical to what the
// rebuild would produce: probabilities land in the same canonical slots,
// and each touched node's inPSum is recomputed with the same float64
// accumulation Build uses, so content fingerprints stay load-path
// invariant. Validation order and error wording mirror the general path.
func (g *Graph) withWeightMutations(ms []Mutation) (*Graph, error) {
	type slot struct{ out, in int64 }
	slots := make([]slot, len(ms))
	for i, m := range ms {
		if m.From < 0 || m.From >= g.n || m.To < 0 || m.To >= g.n {
			return nil, fmt.Errorf("%w: op %d edge ⟨%d,%d⟩ outside [0,%d)", ErrInvalidMutation, i, m.From, m.To, g.n)
		}
		if m.From == m.To {
			return nil, fmt.Errorf("%w: op %d is a self-loop at node %d", ErrInvalidMutation, i, m.From)
		}
		out := g.outEdgeIndex(m.From, m.To)
		if out < 0 {
			return nil, fmt.Errorf("%w: op %d (%s) on missing edge ⟨%d,%d⟩", ErrInvalidMutation, i, m.Op, m.From, m.To)
		}
		if m.P < 0 || m.P > 1 || m.P != m.P {
			return nil, fmt.Errorf("%w: op %d probability %v on ⟨%d,%d⟩", ErrInvalidMutation, i, m.P, m.From, m.To)
		}
		slots[i] = slot{out: out, in: g.inEdgeIndex(m.From, m.To)}
	}

	ng := &Graph{
		n:      g.n,
		m:      g.m,
		outOff: g.outOff, // shared with the parent epoch
		outTo:  g.outTo,  // shared
		outP:   append([]float32(nil), g.outP...),
		inOff:  g.inOff,  // shared
		inFrom: g.inFrom, // shared
		inP:    append([]float32(nil), g.inP...),
		inPSum: append([]float32(nil), g.inPSum...),
		// The topology arrays belong to the root of the sharing chain; pin
		// it (not g) so the mmap finalizer cannot fire under us and a long
		// run of weight-only epochs retains one ancestor, not all of them.
		topoParent: g.topoRoot(),
	}
	touched := make(map[NodeID]struct{}, len(ms))
	for i, m := range ms {
		ng.outP[slots[i].out] = m.P
		ng.inP[slots[i].in] = m.P
		touched[m.To] = struct{}{}
	}
	for v := range touched {
		var sum float64
		lo, hi := ng.inOff[v], ng.inOff[v+1]
		for i := lo; i < hi; i++ {
			sum += float64(ng.inP[i])
		}
		ng.inPSum[v] = float32(sum)
	}
	ng.epoch = g.epoch + 1
	ng.lineage = ChainFingerprint(g.EpochLineage(), ms)
	return ng, nil
}
