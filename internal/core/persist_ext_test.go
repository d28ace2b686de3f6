package core

// Extension-blob coverage: the opaque blob must round-trip byte-for-byte
// (it carries opimd's serving spec and learner state across kill −9), and
// a frame past the size limit must be refused instead of read.

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/rrset"
)

func TestSaveSessionRoundTripsExtension(t *testing.T) {
	g := testGraph(t, 200, 91)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(200)
	blob := []byte("LEARN1\x00\x01\x02\xff posterior state bytes")
	o.SetExtension(blob)

	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	restored, meta, err := LoadSessionResolve(bytes.NewReader(buf.Bytes()), func(m *SessionMeta) (*rrset.Sampler, error) {
		if !bytes.Equal(m.Ext, blob) {
			t.Fatalf("resolver saw ext %q, want %q", m.Ext, blob)
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(meta.Ext, blob) || !bytes.Equal(restored.Extension(), blob) {
		t.Fatalf("extension round-tripped as %q, want %q", restored.Extension(), blob)
	}

	// And a save→load→save cycle reproduces identical bytes: the blob is
	// part of the byte-identity contract eviction's serialize-then-verify
	// relies on.
	var buf2 bytes.Buffer
	if err := SaveSession(&buf2, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("resave after load produced different bytes")
	}
}

func TestSaveSessionEmptyExtension(t *testing.T) {
	g := testGraph(t, 200, 93)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(100)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	restored, meta, err := LoadSessionResolve(bytes.NewReader(buf.Bytes()), func(*SessionMeta) (*rrset.Sampler, error) { return s, nil })
	if err != nil {
		t.Fatal(err)
	}
	if meta.Ext != nil || restored.Extension() != nil {
		t.Fatalf("empty extension loaded as %v / %v, want nil", meta.Ext, restored.Extension())
	}
}

// TestLoadSessionRefusesOversizedFrame: a frame past the size limit is
// refused before its CRC or JSON is looked at, so an extension blob can
// never drive the loader into an unbounded read.
func TestLoadSessionRefusesOversizedFrame(t *testing.T) {
	g := testGraph(t, 200, 97)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	o.SetExtension(bytes.Repeat([]byte{0xAB}, 4096))
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readSessionFrame(bytes.NewReader(raw), len(raw)-1); !errors.Is(err, ErrBadSession) {
		t.Fatalf("oversized frame error = %v, want ErrBadSession", err)
	}
	if _, err := readSessionFrame(bytes.NewReader(raw), len(raw)); err != nil {
		t.Fatalf("frame at exactly the limit: %v", err)
	}
}
