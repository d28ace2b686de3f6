package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// coreMutationBatch mirrors rrset's test batch builder: deletes, weight
// halvings, and LT-safe inserts over a minority of edges.
func coreMutationBatch(t *testing.T, g *graph.Graph) []graph.Mutation {
	t.Helper()
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool { edges = append(edges, e); return true })
	have := make(map[int64]bool, len(edges))
	key := func(f, to int32) int64 { return int64(f)<<32 | int64(uint32(to)) }
	for _, e := range edges {
		have[key(e.From, e.To)] = true
	}
	var ms []graph.Mutation
	for i, e := range edges {
		switch i % 23 {
		case 0:
			ms = append(ms, graph.Mutation{Op: graph.OpEdgeDelete, From: e.From, To: e.To})
			nf := (e.From + 11) % g.N()
			if nf != e.To && nf != e.From && !have[key(nf, e.To)] {
				ms = append(ms, graph.Mutation{Op: graph.OpEdgeInsert, From: nf, To: e.To, P: e.P})
				have[key(nf, e.To)] = true
			}
		case 7:
			ms = append(ms, graph.Mutation{Op: graph.OpSetWeight, From: e.From, To: e.To, P: e.P / 2})
		}
	}
	if len(ms) == 0 {
		t.Fatal("mutation batch came out empty")
	}
	return ms
}

// TestRepairForMutationsMatchesFreshSession is the end-to-end byte-identity
// check at the session level: advance on the original graph, mutate, repair
// — then further advances, snapshots and checkpoints must be
// indistinguishable from a session that ran on the mutated graph from the
// start.
func TestRepairForMutationsMatchesFreshSession(t *testing.T) {
	g := testGraph(t, 400, 81)
	ms := coreMutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, Delta: 0.1, Seed: 82, Workers: 3}

	repaired, err := NewOnline(rrset.NewSampler(g, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	repaired.Advance(900)
	regen := repaired.RepairForMutations(rrset.NewSampler(mg, diffusion.IC), ms)
	if regen <= 0 || regen >= 900 {
		t.Fatalf("repair regenerated %d of 900 sets; want a partial repair", regen)
	}
	if repaired.Sampler().Graph() != mg {
		t.Fatal("sampler not rebound to the mutated graph")
	}

	fresh, err := NewOnline(rrset.NewSampler(mg, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Advance(900)

	// The streams continue identically after the repair.
	repaired.Advance(300)
	fresh.Advance(300)

	snapA, snapB := repaired.Snapshot(), fresh.Snapshot()
	if !reflect.DeepEqual(snapA.Seeds, snapB.Seeds) || snapA.Alpha != snapB.Alpha ||
		snapA.CoverageR1 != snapB.CoverageR1 || snapA.CoverageR2 != snapB.CoverageR2 {
		t.Fatalf("snapshots diverge:\nrepaired: %v\nfresh:    %v", snapA, snapB)
	}
	if repaired.EdgesExamined() != fresh.EdgesExamined() {
		t.Fatalf("cumulative gamma diverges: %d vs %d", repaired.EdgesExamined(), fresh.EdgesExamined())
	}

	var a, b bytes.Buffer
	if err := SaveSession(&a, repaired); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&b, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repaired session checkpoint differs from a never-mutated run")
	}
}

// TestSaveSessionRecordsEpoch: OPIMS4 carries the sampler graph's epoch and
// lineage, so a resuming daemon can tell how many mutation batches the
// checkpoint has seen.
func TestSaveSessionRecordsEpoch(t *testing.T) {
	g := testGraph(t, 300, 83)
	ms := coreMutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	s := rrset.NewSampler(mg, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(200)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	_, meta, err := LoadSessionResolve(&buf, func(m *SessionMeta) (*rrset.Sampler, error) { return s, nil })
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 1 || meta.Lineage != mg.EpochLineage() {
		t.Fatalf("epoch block = (%d, %s), want (1, %s)", meta.Epoch, meta.Lineage, mg.EpochLineage())
	}
}

// TestStaleCheckpointLoadsOntoMutatedGraph: a checkpoint taken at epoch 0
// loads onto an epoch-1 sampler when the resolver hands one over, and the
// regenerated session is in the exact state of a session that never left
// the mutated graph. LoadSession's own resolver refuses the same load with
// the hard ErrGraphMismatch.
func TestStaleCheckpointLoadsOntoMutatedGraph(t *testing.T) {
	g := testGraph(t, 300, 85)
	ms := coreMutationBatch(t, g)
	mg, err := g.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Delta: 0.1, Seed: 86}
	o, err := NewOnline(rrset.NewSampler(g, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(500)
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	newSampler := rrset.NewSampler(mg, diffusion.IC)
	if _, err := LoadSession(bytes.NewReader(saved), newSampler); !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("stale checkpoint through LoadSession: err = %v, want ErrGraphMismatch", err)
	}

	restored, meta, err := LoadSessionResolve(bytes.NewReader(saved),
		func(m *SessionMeta) (*rrset.Sampler, error) { return newSampler, nil })
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 0 {
		t.Fatalf("checkpoint epoch = %d, want 0", meta.Epoch)
	}

	fresh, err := NewOnline(rrset.NewSampler(mg, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Advance(500)
	var a, b bytes.Buffer
	if err := SaveSession(&a, restored); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&b, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("stale checkpoint regenerated on the mutated graph differs from a never-mutated run")
	}
}

// TestResampleMatchesFreshSession: Resample lands an engine two batches
// behind on the final graph, byte-identical to a fresh run there.
func TestResampleMatchesFreshSession(t *testing.T) {
	g := testGraph(t, 300, 87)
	g1, err := g.WithMutations(coreMutationBatch(t, g))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g1.WithMutations(coreMutationBatch(t, g1))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Delta: 0.1, Seed: 88, Workers: 2}
	behind, err := NewOnline(rrset.NewSampler(g, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	behind.Advance(601)
	behind.Resample(rrset.NewSampler(g2, diffusion.IC))
	fresh, err := NewOnline(rrset.NewSampler(g2, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Advance(601)
	var a, b bytes.Buffer
	if err := SaveSession(&a, behind); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&b, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resampled session differs from a fresh run on the final graph")
	}
}
