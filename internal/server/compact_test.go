package server

// Journal-compaction coverage: once the mutation journal holds
// JournalCompactEvery entries it collapses into an OPIMG2 snapshot plus a
// rewritten single-header journal; replay from the snapshot reproduces
// the exact epoch chain, checkpoints predating the snapshot are refused
// loudly, current checkpoints resume, an unloaded graph reloads through
// the snapshot (not the full from-base replay), and compaction never
// strands a session that is being created or sits evicted.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// setWeightBatches applies one set_weight batch per value to the named
// graph's first edge and returns the applied mutations plus the final
// update response.
func setWeightBatches(t *testing.T, c *Client, name string, g *graph.Graph, ps []float32) ([][]graph.Mutation, UpdateGraphResponse) {
	t.Helper()
	e := firstEdge(t, g)
	var applied [][]graph.Mutation
	var last UpdateGraphResponse
	for _, p := range ps {
		up, err := c.UpdateGraph(name, []GraphUpdate{{Op: "set_weight", From: e.From, To: e.To, P: p}})
		if err != nil {
			t.Fatal(err)
		}
		applied = append(applied, []graph.Mutation{{Op: graph.OpSetWeight, From: e.From, To: e.To, P: p}})
		last = up
	}
	return applied, last
}

func TestJournalCompaction(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir, JournalCompactEvery: 3})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.Advance(500); err != nil {
		t.Fatal(err)
	}
	// This checkpoint is at epoch 0; the compaction below truncates the
	// chain past it.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	before := counters(t).Counters["server_journal_compactions_total"]
	applied, last := setWeightBatches(t, c, DefaultGraphName, sampler.Graph(), []float32{0.11, 0.22, 0.33, 0.44})
	if last.Epoch != 4 {
		t.Fatalf("epoch after 4 batches = %d", last.Epoch)
	}
	if after := counters(t).Counters["server_journal_compactions_total"]; after != before+1 {
		t.Fatalf("journal_compactions_total = %d, want %d (compaction at the 3rd batch)", after, before+1)
	}
	if _, err := os.Stat(MutationSnapshotPath(dir, DefaultGraphName, 3)); err != nil {
		t.Fatalf("compaction snapshot missing: %v", err)
	}
	// The live session keeps advancing across the compaction.
	if _, err := c.Advance(500); err != nil {
		t.Fatal(err)
	}

	// Replay from disk, the way a restart does: the snapshot supplies
	// epochs 0–3, the rewritten journal epoch 4.
	base := robustSampler(t).Graph()
	g2, glog, err := ReplayMutationLog(dir, DefaultGraphName, base)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Epoch() != 4 || g2.EpochLineage() != last.Lineage {
		t.Fatalf("replayed graph at epoch %d lineage %.12s, live graph at 4/%.12s", g2.Epoch(), g2.EpochLineage(), last.Lineage)
	}
	if glog.BaseEpoch != 3 || glog.Epochs() != 1 || glog.BaseFingerprint != base.Fingerprint() {
		t.Fatalf("replayed log = {BaseEpoch:%d Epochs:%d BaseFingerprint:%.12s}, want base 3 with one entry, anchored to the epoch-0 dataset",
			glog.BaseEpoch, glog.Epochs(), glog.BaseFingerprint)
	}

	// The epoch-0 checkpoint now predates the snapshot: refused loudly.
	sampler2 := rrset.NewSampler(g2, diffusion.IC)
	restartCfg := Config{Batch: 500, CheckpointDir: dir, DefaultGraphLog: glog}
	_, _, err = restart(t, sampler2, restartCfg)
	if !errors.Is(err, core.ErrGraphMismatch) || !strings.Contains(err.Error(), "outside the journaled chain") {
		t.Fatalf("pre-compaction checkpoint resume error = %v, want a loud outside-the-chain refusal", err)
	}

	// A current checkpoint resumes cleanly against the replayed graph.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	caughtUp := counters(t).Counters["server_sessions_caught_up_total"]
	srv2, _, err := restart(t, sampler2, restartCfg)
	if err != nil {
		t.Fatalf("current checkpoint resume: %v", err)
	}
	regen := counters(t).Counters["server_sessions_caught_up_total"] - caughtUp
	if def := engine(t, srv2, DefaultSessionID); regen != 0 || def.NumRR() != 1000 {
		t.Fatalf("current checkpoint resume: num_rr=%d caught up=%d", def.NumRR(), regen)
	}

	// The repaired live session is byte-identical to a fresh run on the
	// final graph — compaction changed durability bookkeeping, not state.
	gm := sampler.Graph()
	for _, ms := range applied {
		if gm, err = gm.WithMutations(ms); err != nil {
			t.Fatal(err)
		}
	}
	if got := saveBytes(t, srv, DefaultSessionID); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9}, 1000)) {
		t.Fatal("session across a journal compaction is not byte-identical to a fresh run on the final graph")
	}
}

// TestCompactedGraphReloadFromSnapshot: after compaction an unloaded
// catalog graph reloads through its journal, which starts from the
// snapshot (the pre-snapshot chain is gone) and re-verifies the
// snapshot's fingerprint — and a corrupted snapshot file fails the reload
// loudly.
func TestCompactedGraphReloadFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir, JournalCompactEvery: 2})
	c := NewClient(ts.URL)

	path, cg := writeCatalogGraph(t, 250, 71)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "cg", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
		t.Fatal(err)
	}
	_, last := setWeightBatches(t, c, "cg", cg, []float32{0.4, 0.6})

	entry := srv.lookupGraph("cg")
	entry.mu.Lock()
	baseEpoch, lineages := entry.baseEpoch, len(entry.lineages)
	entry.mu.Unlock()
	if baseEpoch != 2 || lineages != 1 {
		t.Fatalf("entry after compaction: baseEpoch=%d with %d lineage(s), want the snapshot epoch alone", baseEpoch, lineages)
	}
	if !srv.unloadGraph(entry) {
		t.Fatal("idle graph refused to unload")
	}

	// The next session touch reloads: base from the spec, then the
	// journal — its snapshot, then no entries — ending at the live
	// identity.
	if _, err := c.CreateSession(SessionSpec{ID: "s1", K: 3, Delta: 0.05, Seed: 7, Graph: "cg"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("s1").Advance(400); err != nil {
		t.Fatal(err)
	}
	entry.mu.Lock()
	g := entry.g
	entry.mu.Unlock()
	if g == nil || g.Epoch() != 2 || g.EpochLineage() != last.Lineage {
		t.Fatalf("reloaded graph identity = %v, want epoch 2 lineage %.12s", g, last.Lineage)
	}

	// Corrupt the snapshot: the reload must refuse, not silently diverge.
	if err := c.DeleteSession("s1"); err != nil {
		t.Fatalf("deleting session: %v", err)
	}
	if !srv.unloadGraph(entry) {
		t.Fatal("graph refused second unload")
	}
	snapPath := MutationSnapshotPath(dir, "cg", 2)
	if err := os.WriteFile(snapPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreateSession(SessionSpec{ID: "s2", K: 3, Delta: 0.05, Seed: 7, Graph: "cg"})
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("session on corrupted snapshot: err = %v, want a loud snapshot failure", err)
	}
}

// TestCreateRacingMutationBatch: a batch lands between createSession's
// engine build and its publication, so the batch's repair sweep cannot
// see the session. Without compaction the post-publication catch-up
// repairs the missed batch; with JournalCompactEvery 1 the batch's
// compaction has already dropped the engine's epoch from the chain, and
// the session must be rebuilt on the mutated graph (exact: it holds no RR
// sets yet). Either way it ends byte-identical to a fresh run there.
func TestCreateRacingMutationBatch(t *testing.T) {
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("compact-every-%d", every), func(t *testing.T) {
			sampler := robustSampler(t)
			srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir(), JournalCompactEvery: every})
			c := NewClient(ts.URL)
			e := firstEdge(t, sampler.Graph())
			ms := []graph.Mutation{{Op: graph.OpEdgeDelete, From: e.From, To: e.To}}
			compactions := counters(t).Counters["server_journal_compactions_total"]
			srv.createHook = func(string) {
				if _, _, err := srv.mutateGraph(srv.lookupGraph(DefaultGraphName), ms); err != nil {
					t.Error(err)
				}
			}
			if _, err := c.CreateSession(SessionSpec{ID: "racer", K: 4, Delta: 0.05, Seed: 77}); err != nil {
				t.Fatal(err)
			}
			srv.createHook = nil
			if d := counters(t).Counters["server_journal_compactions_total"] - compactions; d != int64(every) {
				t.Fatalf("%d compactions, want %d", d, every)
			}
			if _, err := c.Session("racer").Advance(600); err != nil {
				t.Fatal(err)
			}
			gm, err := sampler.Graph().WithMutations(ms)
			if err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, srv, "racer"); !bytes.Equal(got,
				refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 77}, 600)) {
				t.Fatal("session created across a mutation batch is not byte-identical to a fresh run on the mutated graph")
			}
		})
	}
}

// TestEvictedSessionSurvivesCompaction: with MaxLoadedSessions 1 and
// JournalCompactEvery 1, a session evicted at epoch 0 misses the next
// batch's repair sweep. Compacting that batch would drop epoch 0 from the
// chain and strand the session's checkpoint — every touch a 500, and a
// restart's adoption refused — so compaction waits while the session
// lags. A restart resumes it, and its next touch reloads, catches up and
// matches a fresh run on the mutated graph.
func TestEvictedSessionSurvivesCompaction(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir, MaxLoadedSessions: 1, JournalCompactEvery: 1})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.CreateSession(SessionSpec{ID: "evictee", K: 4, Delta: 0.05, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	evictee := c.Session("evictee")
	if _, err := evictee.Advance(600); err != nil {
		t.Fatal(err)
	}
	// Touching the default session evicts evictee at epoch 0.
	if _, err := c.Advance(400); err != nil {
		t.Fatal(err)
	}
	if got := sessionState(srv.lookup("evictee").state.Load()); got != stateUnloaded {
		t.Fatalf("evictee state = %d, want unloaded", got)
	}
	e := firstEdge(t, sampler.Graph())
	ms := []graph.Mutation{{Op: graph.OpEdgeDelete, From: e.From, To: e.To}}
	compactions := counters(t).Counters["server_journal_compactions_total"]
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: e.From, To: e.To}}); err != nil {
		t.Fatal(err)
	}
	if d := counters(t).Counters["server_journal_compactions_total"] - compactions; d != 0 {
		t.Fatalf("journal compacted %d time(s) while an evicted session lags the chain", d)
	}

	// A restart at this point resumes every checkpoint.
	g2, glog, err := ReplayMutationLog(dir, DefaultGraphName, robustSampler(t).Graph())
	if err != nil {
		t.Fatal(err)
	}
	if _, adopted, err := restart(t, rrset.NewSampler(g2, diffusion.IC), Config{Batch: 500, CheckpointDir: dir, DefaultGraphLog: glog}); err != nil || len(adopted) != 1 {
		t.Fatalf("restart after the batch: adopted %v, err %v", adopted, err)
	}

	if _, err := evictee.Advance(400); err != nil {
		t.Fatal(err)
	}
	gm, err := sampler.Graph().WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, srv, "evictee"); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 77}, 1000)) {
		t.Fatal("evicted session's catch-up diverged from a fresh run on the mutated graph")
	}
}

// TestDefaultGraphCompactsAcrossRestarts: the default graph restarts from
// a compacted journal, compacts again, and restarts again. Every
// compaction must keep the journal anchored to the epoch-0 dataset's
// fingerprint, not to the snapshot the previous restart began from, or
// the next restart cannot replay the journal at all.
func TestDefaultGraphCompactsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	base := robustSampler(t).Graph()
	for round := 0; round < 3; round++ {
		g, glog, err := ReplayMutationLog(dir, DefaultGraphName, robustSampler(t).Graph())
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		if g.Epoch() != int64(2*round) {
			t.Fatalf("restart %d replayed to epoch %d, want %d", round, g.Epoch(), 2*round)
		}
		srv, _, err := restart(t, rrset.NewSampler(g, diffusion.IC), Config{Batch: 500, CheckpointDir: dir, JournalCompactEvery: 2, DefaultGraphLog: glog})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		p := float32(round+1) / 10
		setWeightBatches(t, NewClient(ts.URL), DefaultGraphName, base, []float32{p, p + 0.05})
		ts.Close()
	}
}
