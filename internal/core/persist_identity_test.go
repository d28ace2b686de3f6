package core

// Graph-identity coverage: the identity block must round-trip, and a
// checkpoint forged against a reweighted graph — same node count,
// different probabilities — must be refused with ErrGraphMismatch instead
// of resuming into garbage guarantees.

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

func TestSaveSessionRoundTripsGraphIdentity(t *testing.T) {
	g := testGraph(t, 300, 61)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 4, Delta: 0.1, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	o.SetGraphIdentity("campaigns", "model=IC&profile=synth-pokec&seed=62")
	o.Advance(400)

	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	restored, meta, err := LoadSessionResolve(&buf, func(m *SessionMeta) (*rrset.Sampler, error) {
		if m.GraphName != "campaigns" {
			t.Fatalf("resolver saw graph name %q", m.GraphName)
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.GraphFingerprint != g.Fingerprint() {
		t.Fatalf("fingerprint %s round-tripped as %s", g.Fingerprint(), meta.GraphFingerprint)
	}
	name, spec := restored.GraphIdentity()
	if name != "campaigns" || spec != "model=IC&profile=synth-pokec&seed=62" {
		t.Fatalf("identity lost: name=%q spec=%q", name, spec)
	}
}

func TestLoadSessionRejectsReweightedGraph(t *testing.T) {
	g := testGraph(t, 300, 63)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 4, Delta: 0.1, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(300)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}

	// Same dataset, same n — but uniform-reweighted: a loud, typed
	// refusal, never a silent load.
	forged, err := graph.Reweight(g, graph.Uniform, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := rrset.NewSampler(forged, diffusion.IC)
	_, err = LoadSession(bytes.NewReader(buf.Bytes()), wrong)
	if !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("reweighted-graph load error = %v, want ErrGraphMismatch", err)
	}
	// The right graph still loads.
	if _, err := LoadSession(bytes.NewReader(buf.Bytes()), s); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSessionResolveError(t *testing.T) {
	g := testGraph(t, 200, 67)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 68})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(100)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("no such graph")
	_, meta, err := LoadSessionResolve(&buf, func(m *SessionMeta) (*rrset.Sampler, error) {
		return nil, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("resolver error = %v", err)
	}
	if meta == nil || meta.GraphFingerprint != g.Fingerprint() {
		t.Fatalf("resolver failure should still return the meta, got %+v", meta)
	}
}

// TestAdvanceToChunked: AdvanceTo must produce the exact sample stream of
// one Advance call even when the delta spans multiple maxAdvanceChunk
// chunks (the int64-truncation fix).
func TestAdvanceToChunked(t *testing.T) {
	g := testGraph(t, 200, 69)
	s := rrset.NewSampler(g, diffusion.IC)
	const target = maxAdvanceChunk + 12345 // forces one full chunk + odd remainder

	a, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	a.Advance(target)

	b, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	b.AdvanceTo(target)

	if b.NumRR() != int64(target) || b.NumRR() != a.NumRR() {
		t.Fatalf("AdvanceTo reached %d, want %d", b.NumRR(), target)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := SaveSession(&wantBuf, a); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&gotBuf, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("chunked AdvanceTo diverged from a single Advance call")
	}
}
