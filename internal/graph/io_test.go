package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	var ea, eb []Edge
	a.Edges(func(e Edge) bool { ea = append(ea, e); return true })
	b.Edges(func(e Edge) bool { eb = append(eb, e); return true })
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestReadTextBasic(t *testing.T) {
	in := `# a comment
0 1 0.5

1 2 0.25
# another
2 0 1.0
`
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	_, p := g.OutNeighbors(1)
	if p[0] != 0.25 {
		t.Fatalf("p(1,2) = %v", p[0])
	}
}

func TestReadTextUnweighted(t *testing.T) {
	g, err := ReadText(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	g.Edges(func(e Edge) bool {
		if e.P != 0 {
			t.Fatalf("unweighted edge has p=%v", e.P)
		}
		return true
	})
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"0\n",         // too few fields
		"0 1 2 3\n",   // too many fields
		"x 1\n",       // bad from
		"0 y\n",       // bad to
		"0 1 zebra\n", // bad probability
		"0 1 2.5\n",   // out-of-range probability (caught by Build)
		"-1 1 0.5\n",  // negative node id (caught by Build)
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := buildTest(t, 4, []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 0.125}})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("text round trip changed graph")
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := buildTest(t, 5, []Edge{{0, 1, 0.5}, {3, 4, 0.125}})

	binPath := filepath.Join(dir, "g.csr")
	if err := SaveFileCSR(binPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if !graphsEqual(g, g2) {
		t.Fatal("OPIMG2 file round trip changed graph")
	}

	txtPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteText(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g3, err := LoadFile(txtPath) // auto-detects text
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g3) {
		t.Fatal("text file round trip changed graph")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}
