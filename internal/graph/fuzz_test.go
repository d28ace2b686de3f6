package graph

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadText checks the text parser never panics and that everything it
// accepts round-trips through the writer.
func FuzzReadText(f *testing.F) {
	f.Add("0 1 0.5\n1 2 0.25\n")
	f.Add("# comment\n\n3 4\n")
	f.Add("0 0 1\n")
	f.Add("x y z\n")
	f.Add("999999999999 1 0.1\n")
	f.Add("0 1 NaN\n")
	f.Add("-1 -2 -3\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: %v vs %v", g2, g)
		}
	})
}

// FuzzReadCSR checks the OPIMG2 copy decoder never panics and that
// everything it accepts is readable row by row and round-trips through
// WriteCSR to the same fingerprint.
func FuzzReadCSR(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSR(&buf, mustLine(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(csrMagic + "\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadCSR(bytes.NewReader(in))
		if err != nil {
			return
		}
		readRows(g)
		var out bytes.Buffer
		if err := WriteCSR(&out, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		g2, err := ReadCSR(&out)
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed fingerprint: %s vs %s", g2.Fingerprint(), g.Fingerprint())
		}
	})
}

// FuzzWithMutations is a differential target: it draws a small graph and
// a mutation batch from the input, and requires WithMutations to reject
// exactly the batches a plain reference rejects (refWithMutations), and to
// accept the rest with the same node count, edge count, fingerprint and
// adjacency rows as the reference.
//
// Input layout: byte 0 picks n ∈ [1, 6], byte 1 the base edge count, then
// three bytes per base edge (from, to, p) and four per op (kind, from, to,
// p). Kind bytes mod 8 map 0–1 to insert, 2–3 delete, 4–5 set_weight, 6
// node_add and 7 an unknown op; endpoint bytes mod 10 minus 1 reach −1 and
// ids past n; p bytes map to b%220/200, up to 1.095, and 255 to NaN.
func FuzzWithMutations(f *testing.F) {
	seed := func(n byte, base [][3]byte, ops ...[4]byte) []byte {
		in := []byte{n - 1, byte(len(base))}
		for _, e := range base {
			in = append(in, e[:]...)
		}
		for _, op := range ops {
			in = append(in, op[:]...)
		}
		return in
	}
	base := [][3]byte{{0, 1, 50}, {1, 2, 80}, {2, 0, 20}}
	f.Add(seed(3, base, [4]byte{6, 0, 0, 0}, [4]byte{0, 4, 1, 100}, [4]byte{0, 1, 4, 30}))  // node_add, edges to and from it
	f.Add(seed(3, base, [4]byte{0, 3, 2, 60}, [4]byte{2, 3, 2, 0}))                         // insert then delete
	f.Add(seed(3, base, [4]byte{2, 1, 2, 0}, [4]byte{0, 1, 2, 120}))                        // delete then insert
	f.Add(seed(3, base, [4]byte{4, 1, 2, 10}, [4]byte{4, 2, 3, 190}, [4]byte{4, 1, 2, 70})) // weight-only
	f.Add(seed(3, base, [4]byte{2, 1, 2, 0}, [4]byte{4, 2, 3, 40}, [4]byte{0, 2, 1, 100}))  // mixed
	f.Add(seed(3, base, [4]byte{0, 1, 2, 100}))                                             // insert of an existing edge
	f.Add(seed(3, base, [4]byte{4, 1, 2, 255}))                                             // NaN weight
	f.Add(seed(3, base, [4]byte{4, 1, 2, 219}))                                             // p > 1
	f.Add(seed(3, base, [4]byte{2, 1, 1, 0}))                                               // self-loop
	f.Add(seed(3, base, [4]byte{7, 1, 2, 0}))                                               // unknown op
	f.Add(seed(3, base, [4]byte{0, 0, 9, 10}))                                              // endpoints out of range
	f.Add(seed(3, base))                                                                    // empty batch
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n := NodeID(in[0]%6) + 1
		ne := int(in[1] % 16)
		in = in[2:]
		b := NewBuilder(n, ne)
		for ; ne > 0 && len(in) >= 3; ne, in = ne-1, in[3:] {
			from, to := NodeID(in[0])%n, NodeID(in[1])%n
			if from != to {
				b.AddEdge(from, to, float32(in[2]%101)/100)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var ms []Mutation
		for ; len(in) >= 4; in = in[4:] {
			m := Mutation{From: NodeID(in[1]%10) - 1, To: NodeID(in[2]%10) - 1, P: float32(in[3]%220) / 200}
			m.Op = [8]MutOp{OpEdgeInsert, OpEdgeInsert, OpEdgeDelete, OpEdgeDelete, OpSetWeight, OpSetWeight, OpAddNode, 0}[in[0]%8]
			if in[3] == 255 {
				m.P = float32(math.NaN())
			}
			ms = append(ms, m)
		}

		want, ok := refWithMutations(g, ms)
		got, err := g.WithMutations(ms)
		if ok != (err == nil) {
			t.Fatalf("WithMutations error %v, reference accepts: %v (batch %v)", err, ok, ms)
		}
		if !ok {
			if !errors.Is(err, ErrInvalidMutation) {
				t.Fatalf("rejection %v is not ErrInvalidMutation", err)
			}
			return
		}
		if got.N() != want.N() || got.M() != want.M() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("derived %v fp %s, reference %v fp %s (batch %v)", got, got.Fingerprint(), want, want.Fingerprint(), ms)
		}
		for v := NodeID(0); v < got.N(); v++ {
			gt, gp := got.OutNeighbors(v)
			wt, wp := want.OutNeighbors(v)
			gf, gq := got.InNeighbors(v)
			wf, wq := want.InNeighbors(v)
			if !slices.Equal(gt, wt) || !slices.Equal(gp, wp) || !slices.Equal(gf, wf) || !slices.Equal(gq, wq) ||
				got.InWeightSum(v) != want.InWeightSum(v) {
				t.Fatalf("node %d rows differ from the reference (batch %v)", v, ms)
			}
		}
		if got.Epoch() != g.Epoch()+1 {
			t.Fatalf("epoch %d, want %d", got.Epoch(), g.Epoch()+1)
		}
	})
}

// refWithMutations is the reference for FuzzWithMutations: it applies ms
// in order to a plain edge list, rejecting an op the way the package
// documents (unknown kind, endpoint outside [0, n), self-loop, insert of
// an existing edge, delete or set_weight of a missing one, p outside
// [0, 1] or NaN, empty batch), and builds the survivors with Builder.
func refWithMutations(g *Graph, ms []Mutation) (*Graph, bool) {
	if len(ms) == 0 {
		return nil, false
	}
	n := g.N()
	var edges []Edge
	g.Edges(func(e Edge) bool { edges = append(edges, e); return true })
	for _, m := range ms {
		switch m.Op {
		case OpAddNode:
			n++
			continue
		case OpEdgeInsert, OpEdgeDelete, OpSetWeight:
		default:
			return nil, false
		}
		if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n || m.From == m.To {
			return nil, false
		}
		i := slices.IndexFunc(edges, func(e Edge) bool { return e.From == m.From && e.To == m.To })
		if (m.Op == OpEdgeInsert) != (i < 0) {
			return nil, false
		}
		if m.Op != OpEdgeDelete && !(m.P >= 0 && m.P <= 1) {
			return nil, false
		}
		switch m.Op {
		case OpEdgeInsert:
			edges = append(edges, Edge{m.From, m.To, m.P})
		case OpEdgeDelete:
			edges = slices.Delete(edges, i, i+1)
		case OpSetWeight:
			edges[i].P = m.P
		}
	}
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.P)
	}
	ref, err := b.Build()
	if err != nil {
		panic(err) // every edge was validated above
	}
	return ref, true
}

// readRows touches every adjacency row and in-weight sum of g.
func readRows(g *Graph) {
	for v := int32(0); v < g.N(); v++ {
		g.OutNeighbors(v)
		g.InNeighbors(v)
		g.InWeightSum(v)
	}
}

func mustLine(f *testing.F) *Graph {
	b := NewBuilder(3, 2)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	return g
}
