package rrset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
)

func sampleCollection(t *testing.T) (*Collection, *Sampler) {
	t.Helper()
	g, err := gen.PreferentialAttachment(200, 5, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(g, diffusion.IC)
	c := NewCollection(g.N())
	Generate(c, s, 300, rng.New(3), 2)
	return c, s
}

// TestChecksumMatchesTrailer: Checksum is the CRC trailer WriteCollection
// writes, across bodies of one and many encoder chunks, and it moves when
// a single set does.
func TestChecksumMatchesTrailer(t *testing.T) {
	c, s := sampleCollection(t)
	for _, extra := range []int{0, 20000} { // the second spans several encodeChunk buffers
		Generate(c, s, extra, rng.New(3), 2)
		var buf bytes.Buffer
		if err := WriteCollection(&buf, c); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		if got, want := c.Checksum(), binary.LittleEndian.Uint32(frame[len(frame)-4:]); got != want {
			t.Fatalf("%d sets: Checksum %08x, trailer %08x", c.Count(), got, want)
		}
	}
	other := NewCollection(c.N())
	Generate(other, s, c.Count(), rng.New(4), 2)
	if other.Checksum() == c.Checksum() {
		t.Fatal("collections from different seeds share a checksum")
	}
}

func TestCollectionRoundTrip(t *testing.T) {
	c, _ := sampleCollection(t)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.Count() != c.Count() || got.TotalSize() != c.TotalSize() || got.EdgesExamined() != c.EdgesExamined() {
		t.Fatal("shape changed in round trip")
	}
	for i := int32(0); i < int32(c.Count()); i++ {
		a, b := c.Set(i), got.Set(i)
		if len(a) != len(b) {
			t.Fatalf("set %d length differs", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d element %d differs", i, j)
			}
		}
	}
	for v := int32(0); v < c.N(); v++ {
		if c.Degree(v) != got.Degree(v) {
			t.Fatalf("rebuilt index wrong at node %d", v)
		}
	}
}

func TestCollectionRoundTripEmpty(t *testing.T) {
	c := NewCollection(7)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 7 || got.Count() != 0 {
		t.Fatalf("empty round trip: n=%d count=%d", got.N(), got.Count())
	}
}

func TestReadCollectionBadMagic(t *testing.T) {
	if _, err := ReadCollection(strings.NewReader("NOPE and more bytes to be sure")); !errors.Is(err, ErrBadCollection) {
		t.Fatalf("error = %v", err)
	}
}

func TestReadCollectionTruncated(t *testing.T) {
	c, _ := sampleCollection(t)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 10, 40, len(full) / 2, len(full) - 2} {
		if _, err := ReadCollection(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadCollection) {
			t.Errorf("truncation at %d: error = %v", cut, err)
		}
	}
}

func TestReadCollectionCorruptNode(t *testing.T) {
	c := NewCollection(4)
	c.Add([]int32{1, 2}, 5)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The final pool entry sits just before the 4-byte CRC trailer;
	// overwrite it with an out-of-range node id (the range guard fires
	// before the CRC is even checked).
	raw[len(raw)-8] = 0xFF
	raw[len(raw)-7] = 0xFF
	raw[len(raw)-6] = 0xFF
	raw[len(raw)-5] = 0x7F
	if _, err := ReadCollection(bytes.NewReader(raw)); !errors.Is(err, ErrBadCollection) {
		t.Fatalf("corrupt node id accepted: %v", err)
	}
}

func TestSamplerAccessors(t *testing.T) {
	_, s := sampleCollection(t)
	if s.Graph() == nil {
		t.Fatal("Graph() nil")
	}
	if s.Model() != diffusion.IC {
		t.Fatalf("Model() = %v", s.Model())
	}
	c := NewCollection(5)
	if c.N() != 5 {
		t.Fatalf("N() = %d", c.N())
	}
}

func TestScratchEpochWraparound(t *testing.T) {
	_, s := sampleCollection(t)
	sc := s.NewScratch()
	sc.epoch = ^uint32(0) - 1
	src := rng.New(9)
	for i := 0; i < 5; i++ {
		nodes, _ := s.Sample(src, sc)
		seen := map[int32]bool{}
		for _, v := range nodes {
			if seen[v] {
				t.Fatal("duplicate after epoch wrap")
			}
			seen[v] = true
		}
	}
}

// TestCRCDetectsInRangeBitFlip: a single bit flip in the pool that keeps
// every node id in range passes every structural check, and must be
// caught by the CRC trailer.
func TestCRCDetectsInRangeBitFlip(t *testing.T) {
	c, _ := sampleCollection(t)
	if c.TotalSize() == 0 {
		t.Fatal("fixture pooled no nodes")
	}
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// First pool entry: after magic (7), header (28) and count+1 offsets.
	poolOff := 7 + 28 + 8*(c.Count()+1)
	raw[poolOff] ^= 1 // v^1 stays within [0, n) for every v < n with n even
	flipped := int32(binary.LittleEndian.Uint32(raw[poolOff : poolOff+4]))
	if flipped < 0 || flipped >= c.N() {
		t.Fatalf("test premise broken: flipped node %d out of range", flipped)
	}
	if _, err := ReadCollection(bytes.NewReader(raw)); !errors.Is(err, ErrBadCollection) {
		t.Fatalf("in-range bit flip accepted: %v", err)
	}
}

// TestReadCollectionTruncationAtEveryBoundary truncates a valid OPIMR3
// stream at (and just inside) every frame boundary — magic, header,
// offsets, pool, per-set γ block, CRC trailer — and requires a wrapped
// ErrBadCollection every time: never a panic, never a silently short
// collection.
func TestReadCollectionTruncationAtEveryBoundary(t *testing.T) {
	c, _ := sampleCollection(t)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	magicEnd := 7
	headerEnd := magicEnd + 28
	offsEnd := headerEnd + 8*(c.Count()+1)
	poolEnd := offsEnd + 4*int(c.TotalSize())
	gammaEnd := poolEnd + 8*c.Count()
	trailerEnd := gammaEnd + 4
	if trailerEnd != len(full) {
		t.Fatalf("frame arithmetic wrong: computed %d, stream has %d", trailerEnd, len(full))
	}
	boundaries := []struct {
		name string
		end  int
	}{
		{"magic", magicEnd},
		{"header", headerEnd},
		{"offsets", offsEnd},
		{"pool", poolEnd},
		{"gamma", gammaEnd},
		{"trailer", trailerEnd},
	}
	for _, b := range boundaries {
		// Cut exactly at the start of the frame, mid-frame, and one byte
		// short of its end; a cut at trailerEnd is the whole valid stream.
		cuts := []int{b.end - 1}
		if prev := b.end - 4; prev > 0 {
			cuts = append(cuts, prev)
		}
		for _, cut := range cuts {
			if cut >= trailerEnd || cut < 0 {
				continue
			}
			got, err := ReadCollection(bytes.NewReader(full[:cut]))
			if !errors.Is(err, ErrBadCollection) {
				t.Errorf("truncation inside %s frame (cut=%d): collection=%v err=%v", b.name, cut, got != nil, err)
			}
		}
	}
	// And the untruncated stream still decodes.
	if _, err := ReadCollection(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestGenerateAtMatchesGenerate: SampleAt with an explicit origin must
// reproduce the id range of a local Generate exactly — the worker-side
// primitive of distributed generation.
func TestGenerateAtMatchesGenerate(t *testing.T) {
	c, s := sampleCollection(t) // 300 sets, base rng.New(3), startID 0
	base := rng.New(3)
	lo, hi := 120, 240
	cc := NewCollection(c.N())
	cc.Append(3, SampleAt(s, hi-lo, base, uint64(lo), 3)...)
	for i := lo; i < hi; i++ {
		a, b := c.Set(int32(i)), cc.Set(int32(i-lo))
		if len(a) != len(b) {
			t.Fatalf("set %d length differs: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d element %d differs", i, j)
			}
		}
	}
}

// TestAppendLeasesByteIdentical: leases sampled with SampleAt, sent through
// the wire format and merged with one Append must equal one local Generate
// — pool, offsets, index and γ, and the serialized bytes — the
// coordinator-side merge invariant.
func TestAppendLeasesByteIdentical(t *testing.T) {
	c, s := sampleCollection(t)
	var want bytes.Buffer
	if err := WriteCollection(&want, c); err != nil {
		t.Fatal(err)
	}
	base := rng.New(3)
	var leases []Batch
	for _, r := range [][2]int{{0, 77}, {77, 150}, {150, 300}} {
		// Round-trip the lease through the wire format, as the fleet does.
		var wire bytes.Buffer
		if err := WriteBatch(&wire, SampleAt(s, r[1]-r[0], base, uint64(r[0]), 2)...); err != nil {
			t.Fatal(err)
		}
		b, err := ReadBatch(&wire)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, b)
	}
	for _, workers := range []int{1, 2, 4} {
		merged := NewCollection(c.N())
		merged.Append(workers, leases...)
		requireIdentical(t, c, merged, "workers="+itoa(workers))
		var got bytes.Buffer
		if err := WriteCollection(&got, merged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatal("leased merge not byte-identical to local generation")
		}
	}
}

// TestFramesDecodeBackToBack: the decoder reads exactly one frame, so
// frames written one after another into one stream decode one after
// another.
func TestFramesDecodeBackToBack(t *testing.T) {
	c, s := sampleCollection(t)
	other := NewCollection(c.N())
	Generate(other, s, 40, rng.New(5), 2)
	var stream bytes.Buffer
	for _, w := range []*Collection{c, other} {
		if err := WriteCollection(&stream, w); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []*Collection{c, other} {
		got, err := ReadCollection(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		requireIdentical(t, want, got, "frame "+itoa(i))
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left after two frames", stream.Len())
	}
}
