package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/rrset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t, 500, 40)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 7, Delta: 0.05, Variant: Prime, Seed: 41, Workers: 2, UnionBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(1500)
	o.Snapshot() // consume one union-budget query

	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumRR() != o.NumRR() || restored.EdgesExamined() != o.EdgesExamined() {
		t.Fatalf("restored counts differ: rr %d/%d γ %d/%d",
			restored.NumRR(), o.NumRR(), restored.EdgesExamined(), o.EdgesExamined())
	}
	a, b := o.Snapshot(), restored.Snapshot()
	if a.Alpha != b.Alpha || a.DeltaSpent != b.DeltaSpent {
		t.Fatalf("snapshots differ after restore: %v vs %v", a, b)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	// save → load → Advance must be byte-identical to never pausing.
	g := testGraph(t, 400, 42)
	s := rrset.NewSampler(g, diffusion.LT)

	uninterrupted, err := NewOnline(s, Options{K: 5, Delta: 0.05, Variant: Plus, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted.Advance(3000)
	want := uninterrupted.Snapshot()

	paused, err := NewOnline(s, Options{K: 5, Delta: 0.05, Variant: Plus, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	paused.Advance(1000)
	var buf bytes.Buffer
	if err := SaveSession(&buf, paused); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadSession(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Advance(2000)
	got := resumed.Snapshot()

	if got.Alpha != want.Alpha || got.SigmaLower != want.SigmaLower || got.SigmaUpper != want.SigmaUpper {
		t.Fatalf("resumed session diverged: %v vs %v", got, want)
	}
	for i := range want.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}

// TestSaveLoadRoundTripBaseSeedsExact is the OPIMS2 regression: BaseSeeds
// and Exact must survive persistence. Under OPIMS1 a resumed augmentation
// session silently became a plain session (non-residual σˡ/σᵘ/α) and an
// Exact session fell back to martingale bounds.
func TestSaveLoadRoundTripBaseSeedsExact(t *testing.T) {
	g := testGraph(t, 400, 51)
	s := rrset.NewSampler(g, diffusion.IC)
	opts := Options{
		K: 4, Delta: 0.05, Variant: Plus, Seed: 52,
		UnionBudget: true, Exact: true, BaseSeeds: []int32{7, 19, 3},
	}
	o, err := NewOnline(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(1200)

	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Options()
	if !got.Exact {
		t.Fatal("Exact lost through save/load")
	}
	if len(got.BaseSeeds) != 3 || got.BaseSeeds[0] != 7 || got.BaseSeeds[1] != 19 || got.BaseSeeds[2] != 3 {
		t.Fatalf("BaseSeeds lost through save/load: %v", got.BaseSeeds)
	}

	// Resume must continue the same stream AND the same residual/exact
	// derivation: snapshots after equal growth are identical.
	uninterrupted, err := NewOnline(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted.Advance(2000)
	want := uninterrupted.Snapshot()
	restored.Advance(800)
	snap := restored.Snapshot()
	if snap.Alpha != want.Alpha || snap.SigmaLower != want.SigmaLower ||
		snap.SigmaUpper != want.SigmaUpper || snap.DeltaSpent != want.DeltaSpent {
		t.Fatalf("resumed OPIMS2 session diverged: %v vs %v", snap, want)
	}
	for i := range want.Seeds {
		if snap.Seeds[i] != want.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
	// And the serialized state itself is byte-identical.
	var a, b bytes.Buffer
	if err := SaveSession(&a, restored); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&b, uninterrupted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed session state is not byte-identical to the uninterrupted run")
	}
}

func TestLoadSessionWrongGraph(t *testing.T) {
	g := testGraph(t, 300, 44)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(100)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	other := rrset.NewSampler(testGraph(t, 301, 46), diffusion.IC)
	if _, err := LoadSession(&buf, other); !errors.Is(err, ErrBadSession) {
		t.Fatalf("wrong-graph load error = %v", err)
	}
}

func TestLoadSessionCorrupt(t *testing.T) {
	g := testGraph(t, 200, 47)
	s := rrset.NewSampler(g, diffusion.IC)
	if _, err := LoadSession(strings.NewReader("garbage data here"), s); !errors.Is(err, ErrBadSession) {
		t.Fatalf("garbage load error = %v", err)
	}

	o, _ := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 48})
	o.Advance(200)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 20, len(full) / 2, len(full) - 3} {
		if _, err := LoadSession(bytes.NewReader(full[:cut]), s); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCollectionSerializationRoundTrip(t *testing.T) {
	g := testGraph(t, 300, 49)
	s := rrset.NewSampler(g, diffusion.IC)
	o, _ := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 50})
	o.Advance(500)
	var buf bytes.Buffer
	if err := rrset.WriteCollection(&buf, o.r1); err != nil {
		t.Fatal(err)
	}
	c, err := rrset.ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != o.r1.Count() || c.TotalSize() != o.r1.TotalSize() || c.EdgesExamined() != o.r1.EdgesExamined() {
		t.Fatal("collection round trip changed shape")
	}
	for i := int32(0); i < int32(c.Count()); i++ {
		a, b := c.Set(i), o.r1.Set(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d differs", i)
			}
		}
	}
	// Index rebuilt correctly: degrees match.
	for v := int32(0); v < c.N(); v++ {
		if c.Degree(v) != o.r1.Degree(v) {
			t.Fatalf("degree(%d) differs after reload", v)
		}
	}
}
