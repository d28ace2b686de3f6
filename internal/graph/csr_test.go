package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// testGraph builds a nontrivial weighted graph for the CSR round-trip and
// load-path tests.
func testGraph(t testing.TB, n int32) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 5, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameGraph fails unless a and b agree edge for edge (bitwise on
// probabilities) and on every derived quantity the samplers consume.
func requireSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	var edgesA []graph.Edge
	a.Edges(func(e graph.Edge) bool { edgesA = append(edgesA, e); return true })
	i := 0
	b.Edges(func(e graph.Edge) bool {
		if edgesA[i] != e {
			t.Fatalf("edge %d: %v vs %v", i, edgesA[i], e)
		}
		i++
		return true
	})
	if i != len(edgesA) {
		t.Fatalf("edge count mismatch: %d vs %d", len(edgesA), i)
	}
	for v := int32(0); v < a.N(); v++ {
		if a.InWeightSum(v) != b.InWeightSum(v) {
			t.Fatalf("InWeightSum(%d): %v vs %v", v, a.InWeightSum(v), b.InWeightSum(v))
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

func TestCSRRoundTrip(t *testing.T) {
	g := testGraph(t, 500)
	var buf bytes.Buffer
	if err := graph.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mapped() {
		t.Error("ReadCSR graph reports Mapped")
	}
	requireSameGraph(t, g, got)
}

func TestCSRRoundTripEmpty(t *testing.T) {
	b := graph.NewBuilder(3, 0) // nodes but no edges
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, g, got)
}

// TestLoadFileFingerprintInvariance is the tentpole invariant on the
// loading side: the same graph saved as text, as OPIMG2 read through
// LoadFile (mmap where available) and as OPIMG2 read through the ReadCSR
// copy decoder yields the same fingerprint as the in-memory original.
func TestLoadFileFingerprintInvariance(t *testing.T) {
	g := testGraph(t, 400)
	dir := t.TempDir()

	p1 := filepath.Join(dir, "g.txt")
	f, err := os.Create(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteText(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "g.opimg2")
	if err := graph.SaveFileCSR(p2, g); err != nil {
		t.Fatal(err)
	}

	fromText, err := graph.LoadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, g, fromText)

	fromV2, err := graph.LoadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	defer fromV2.Close()
	requireSameGraph(t, g, fromV2)
	if fromV2.Mapped() != graph.MmapAvailable() {
		t.Errorf("LoadFile(OPIMG2).Mapped() = %v, want %v", fromV2.Mapped(), graph.MmapAvailable())
	}

	// Copy path, forced: must agree with the mmap path bit for bit.
	cf, err := os.Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	forced, err := graph.ReadCSR(cf)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Mapped() {
		t.Error("ReadCSR load reports Mapped")
	}
	requireSameGraph(t, fromV2, forced)
}

// TestMmapAdvanceSnapshotIdentity drives a full online session on a heap
// graph and on the mmap-loaded copy of the same graph and requires the two
// checkpoint byte streams — seeds, RR pools, bounds, fingerprints — to be
// identical. This is the end-to-end form of "the load path does not leak
// into results".
func TestMmapAdvanceSnapshotIdentity(t *testing.T) {
	g := testGraph(t, 300)
	path := filepath.Join(t.TempDir(), "g.opimg2")
	if err := graph.SaveFileCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	run := func(g *graph.Graph) []byte {
		t.Helper()
		o, err := core.NewOnline(rrset.NewSampler(g, diffusion.IC),
			core.Options{K: 8, Delta: 0.05, Variant: core.Plus, Seed: 21, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		o.AdvanceTo(4000)
		if snap := o.Snapshot(); len(snap.Seeds) != 8 {
			t.Fatalf("got %d seeds", len(snap.Seeds))
		}
		var buf bytes.Buffer
		if err := core.SaveSession(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	heap, mapped := run(g), run(mg)
	if !bytes.Equal(heap, mapped) {
		t.Fatalf("session bytes diverge between heap and mmap graphs: %d vs %d bytes", len(heap), len(mapped))
	}
}

// TestReadCSRRejectsCorruption tampers with individual sections and
// expects the copy decoder's deep validation to reject each mutant.
func TestReadCSRRejectsCorruption(t *testing.T) {
	g := testGraph(t, 120)
	var buf bytes.Buffer
	if err := graph.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	if _, err := graph.ReadCSR(bytes.NewReader(orig)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	for _, cut := range []int{0, 5, 8, 23, len(orig) / 2, len(orig) - 1} {
		if _, err := graph.ReadCSR(bytes.NewReader(orig[:cut])); !errors.Is(err, graph.ErrBadFormat) {
			t.Errorf("truncation at %d: error = %v, want ErrBadFormat", cut, err)
		}
	}
	// Flip one byte at a spread of offsets past the header: whatever
	// section it lands in (offsets, targets, probabilities, inPSum), deep
	// validation must notice the out/in sides no longer agree.
	for off := 24; off < len(orig); off += 997 {
		mut := bytes.Clone(orig)
		mut[off] ^= 0x40
		if _, err := graph.ReadCSR(bytes.NewReader(mut)); err == nil {
			t.Errorf("flip at offset %d accepted", off)
		}
	}
}

// TestCSRDecodersRejectForgedEdgeCount feeds both OPIMG2 decoders a header
// whose edge count m overflows the section arithmetic: the copy decoder
// once scaled m to bytes unclamped (32-byte stream: header plus outOff), the
// mmap decoder laid the sections out before bounding m (header-only file).
// Each must answer ErrBadFormat, not panic.
func TestCSRDecodersRejectForgedEdgeCount(t *testing.T) {
	header := func(m uint64) []byte {
		b := append([]byte("OPIMG2\n\x00"), make([]byte, 16)...)
		binary.LittleEndian.PutUint64(b[16:], m) // n = 0
		return b
	}
	inputs := map[string][]byte{
		"copy": append(header(0x3030303030303030), make([]byte, 8)...),
		"mmap": header(1 << 59),
	}
	dir := t.TempDir()
	for name, in := range inputs {
		if _, err := graph.ReadCSR(bytes.NewReader(in)); !errors.Is(err, graph.ErrBadFormat) {
			t.Errorf("%s input, ReadCSR: error = %v, want ErrBadFormat", name, err)
		}
		path := filepath.Join(dir, name+".opimg2")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.LoadFile(path); !errors.Is(err, graph.ErrBadFormat) {
			t.Errorf("%s input, LoadFile: error = %v, want ErrBadFormat", name, err)
		}
	}
}

// BenchmarkLoadFile tracks OPIMG2 load latency through the ReadCSR copy
// decoder and through LoadFile's mmap path; csr_mmap is the headline
// number behind the "large graph loads in milliseconds" claim
// (docs/PERFORMANCE.md).
func BenchmarkLoadFile(b *testing.B) {
	g := testGraph(b, 20000)
	path := filepath.Join(b.TempDir(), "g.opimg2")
	if err := graph.SaveFileCSR(path, g); err != nil {
		b.Fatal(err)
	}
	bench := func(name string, load func() (*graph.Graph, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := load()
				if err != nil {
					b.Fatal(err)
				}
				if g.N() != 20000 {
					b.Fatal("wrong graph")
				}
				g.Close()
			}
		})
	}
	bench("csr_copy", func() (*graph.Graph, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadCSR(f)
	})
	bench("csr_mmap", func() (*graph.Graph, error) { return graph.LoadFile(path) })
}
