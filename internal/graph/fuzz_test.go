package graph

import (
	"bytes"
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

// FuzzReadBinary checks the binary decoder never panics and rejects or
// round-trips arbitrary bytes.
func FuzzReadBinary(f *testing.F) {
	g := mustLine(f)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("OPIMG1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
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
