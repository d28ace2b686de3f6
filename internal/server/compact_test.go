package server

// Journal-compaction coverage: once a batch leaves a graph's mutation
// journal larger than the graph's OPIMG2 encoding, the journal collapses
// into an OPIMG2 snapshot plus a rewritten single-header journal that
// keeps the epoch chain back to the oldest session checkpoint on disk.
// Replay from the snapshot reproduces that chain exactly, checkpoints on
// it resume (loaded, evicted or taken before the batch), a stray copy
// older than it is refused loudly, an unloaded graph reloads through the
// snapshot, the journal stays bounded by the graph's size, and
// compaction never strands a session that is being created.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/graph"
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

// reweightAll is one batch setting every edge of g to p, the shape of a
// learning round. Its journal entry (~45 B per edge) outgrows g's OPIMG2
// encoding (~16 B per edge), so applying it compacts the journal.
func reweightAll(t *testing.T, g *graph.Graph, p float32) ([]GraphUpdate, []graph.Mutation) {
	t.Helper()
	var ups []GraphUpdate
	g.Edges(func(e graph.Edge) bool {
		ups = append(ups, GraphUpdate{Op: "set_weight", From: e.From, To: e.To, P: p})
		return true
	})
	ms, err := updatesToMutations(ups)
	if err != nil {
		t.Fatal(err)
	}
	return ups, ms
}

// graphChain returns the named graph's current epoch and lineage and the
// number of lineages its in-memory chain holds.
func graphChain(srv *Server, name string) (epoch int64, lineage string, chain int) {
	e := srv.lookupGraph(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.ident.Load()
	return id.epoch, id.lineage, len(e.lineages)
}

func compactions(t *testing.T) int64 {
	t.Helper()
	return counters(t).Counters["server_journal_compactions_total"]
}

func TestJournalCompaction(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.Advance(500); err != nil {
		t.Fatal(err)
	}
	// This checkpoint is at epoch 0; the compaction below keeps the chain
	// back to it.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	before := compactions(t)
	applied, _ := setWeightBatches(t, c, DefaultGraphName, sampler.Graph(), []float32{0.11, 0.22})
	ups, ms := reweightAll(t, sampler.Graph(), 0.1)
	if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
		t.Fatal(err)
	}
	applied = append(applied, ms)
	more, last := setWeightBatches(t, c, DefaultGraphName, sampler.Graph(), []float32{0.44})
	applied = append(applied, more...)
	if last.Epoch != 4 {
		t.Fatalf("epoch after 4 batches = %d", last.Epoch)
	}
	if after := compactions(t); after != before+1 {
		t.Fatalf("journal_compactions_total = %d, want %d (compaction at the whole-graph batch only)", after, before+1)
	}
	if _, err := os.Stat(MutationSnapshotPath(dir, DefaultGraphName, 3)); err != nil {
		t.Fatalf("compaction snapshot missing: %v", err)
	}
	if _, _, n := graphChain(srv, DefaultGraphName); n != 5 {
		t.Fatalf("chain holds %d lineages after compaction, want 5 (epochs 0-4: the epoch-0 checkpoint pins them)", n)
	}
	// The live session keeps advancing across the compaction.
	if _, err := c.Advance(500); err != nil {
		t.Fatal(err)
	}

	// Restart: Resume replays the journal — the snapshot supplies epochs
	// 0–3, the rewritten journal epoch 4 — and the epoch-0 checkpoint
	// resumes onto epoch 4.
	caughtUp := counters(t).Counters["server_sessions_caught_up_total"]
	srv2, _, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("epoch-0 checkpoint resume across a compaction: %v", err)
	}
	if epoch, lineage, n := graphChain(srv2, DefaultGraphName); epoch != 4 || lineage != last.Lineage || n != 5 {
		t.Fatalf("replayed graph at epoch %d lineage %.12s with %d lineages, live graph at 4/%.12s with 5", epoch, lineage, n, last.Lineage)
	}
	if d := counters(t).Counters["server_sessions_caught_up_total"] - caughtUp; d != 1 || engine(t, srv2, DefaultSessionID).NumRR() != 500 {
		t.Fatalf("epoch-0 checkpoint resume: num_rr=%d caught up=%d", engine(t, srv2, DefaultSessionID).NumRR(), d)
	}

	// A current checkpoint resumes without catching up.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	caughtUp = counters(t).Counters["server_sessions_caught_up_total"]
	srv3, _, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("current checkpoint resume: %v", err)
	}
	regen := counters(t).Counters["server_sessions_caught_up_total"] - caughtUp
	if def := engine(t, srv3, DefaultSessionID); regen != 0 || def.NumRR() != 1000 {
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
	want := refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9}, 1000)
	if !bytes.Equal(saveBytes(t, srv, DefaultSessionID), want) {
		t.Fatal("session across a journal compaction is not byte-identical to a fresh run on the final graph")
	}
	if !bytes.Equal(saveBytes(t, srv3, DefaultSessionID), want) {
		t.Fatal("session resumed across a journal compaction is not byte-identical to a fresh run on the final graph")
	}
}

// TestLoadedCheckpointSurvivesCompaction: a loaded session checkpoints,
// a batch that compacts the journal lands, and the daemon is killed
// before the session checkpoints again. The compaction kept the chain
// back to that checkpoint's epoch, so the restart resumes it, and it
// ends byte-identical to a fresh run on the final graph.
func TestLoadedCheckpointSurvivesCompaction(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL)
	opts := core.Options{K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31}
	if _, err := c.CreateSession(SessionSpec{ID: "loaded", K: opts.K, Delta: opts.Delta, Seed: opts.Seed}); err != nil {
		t.Fatal(err)
	}
	s := c.Session("loaded")
	if _, err := s.Advance(600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := compactions(t)
	ups, ms := reweightAll(t, sampler.Graph(), 0.08)
	if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
		t.Fatal(err)
	}
	if d := compactions(t) - before; d != 1 {
		t.Fatalf("%d compactions after a batch larger than the graph, want 1", d)
	}
	ts.Close() // simulated SIGKILL: only the epoch-0 checkpoint and the journal survive

	srv2, adopted, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if err != nil || len(adopted) != 1 {
		t.Fatalf("restart after a compacting batch: adopted %v, err %v", adopted, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	if _, err := NewClient(ts2.URL).Session("loaded").Advance(400); err != nil {
		t.Fatal(err)
	}
	gm, err := sampler.Graph().WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, srv2, "loaded"), refBytes(t, gm, opts, 1000)) {
		t.Fatal("session resumed across a compaction is not byte-identical to a fresh run on the final graph")
	}
}

// TestPreCompactionCheckpointCopyRefused: a checkpoint that no session
// records — here a copy taken before the chain was compacted past its
// epoch, placed in both generations — is refused loudly instead of
// resuming onto a chain it is not on.
func TestPreCompactionCheckpointCopyRefused(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL).Session(DefaultSessionID)
	if _, err := c.Advance(500); err != nil {
		t.Fatal(err)
	}
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint past epoch 0, then compact: the chain now starts at the
	// newer checkpoint's epoch.
	setWeightBatches(t, c, DefaultGraphName, sampler.Graph(), []float32{0.3})
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ups, _ := reweightAll(t, sampler.Graph(), 0.1)
	if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	for _, p := range []string{ck.Path, ck.Path + fsutil.PrevSuffix} {
		if err := os.WriteFile(p, stale, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if !errors.Is(err, core.ErrGraphMismatch) || !strings.Contains(err.Error(), "outside the journaled chain") {
		t.Fatalf("pre-compaction checkpoint copy resume error = %v, want a loud outside-the-chain refusal", err)
	}
}

// TestJournalBoundedBySnapshot: a session that checkpoints after every
// one of 20 whole-graph batches keeps the journal no larger than the
// graph's OPIMG2 encoding and the in-memory chain at most two lineages
// long (the checkpoint's epoch and the head).
func TestJournalBoundedBySnapshot(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL).Session(DefaultSessionID)
	if _, err := c.Advance(200); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ups, _ := reweightAll(t, sampler.Graph(), 0.05+0.01*float32(i%5))
		up, err := c.UpdateGraph(DefaultGraphName, ups)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(MutationLogPath(dir, DefaultGraphName))
		if err != nil {
			t.Fatal(err)
		}
		if limit := graph.CSRSize(srv.lookupGraph(DefaultGraphName).current().Graph()); st.Size() > limit {
			t.Fatalf("batch %d (epoch %d): journal holds %d bytes, graph encodes in %d", i+1, up.Epoch, st.Size(), limit)
		}
		if _, _, n := graphChain(srv, DefaultGraphName); n > 2 {
			t.Fatalf("batch %d (epoch %d): chain holds %d lineages, want ≤ 2", i+1, up.Epoch, n)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "graph-default.e*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("compaction snapshots on disk: %v, want the current one only", snaps)
	}
}

// TestReplayLongJournalEntry: one journal entry longer than 64 MiB — what
// a learning round over a graph of millions of edges writes — replays
// onto the recorded lineage.
func TestReplayLongJournalEntry(t *testing.T) {
	dir := t.TempDir()
	base := robustSampler(t).Graph()
	e := firstEdge(t, base)
	ms := []graph.Mutation{{Op: graph.OpSetWeight, From: e.From, To: e.To, P: 0.3}}
	ng, err := base.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendMutationLog(dir, DefaultGraphName, base.Fingerprint(),
		mutlogEntry{Epoch: ng.Epoch(), Lineage: ng.EpochLineage(), Updates: mutationsToUpdates(ms)}); err != nil {
		t.Fatal(err)
	}
	path := MutationLogPath(dir, DefaultGraphName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// JSON whitespace after the entry's opening brace pads it to 65 MiB.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '\n') + 2
	chunks := [][]byte{data[:i]}
	pad := bytes.Repeat([]byte{' '}, 1<<20)
	for n := 0; n < 65; n++ {
		chunks = append(chunks, pad)
	}
	for _, c := range append(chunks, data[i:]) {
		if _, err := f.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, chain, err := replayMutationLog(dir, DefaultGraphName, base)
	if err != nil {
		t.Fatal(err)
	}
	if g.EpochLineage() != ng.EpochLineage() || len(chain) != 2 || chain[1] != ng.EpochLineage() {
		t.Fatalf("replay of a 65 MiB entry landed on epoch %d lineage %.12s (chain %d), want epoch 1 lineage %.12s",
			g.Epoch(), g.EpochLineage(), len(chain), ng.EpochLineage())
	}
}

// TestCompactedGraphReloadFromSnapshot: after compaction an unloaded
// catalog graph reloads through its journal, which starts from the
// snapshot (the pre-snapshot chain is gone: no session checkpoint pins
// it) and re-verifies the snapshot's fingerprint — and a corrupted
// snapshot file fails the reload loudly.
func TestCompactedGraphReloadFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL)

	path, cg := writeCatalogGraph(t, 250, 71)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "cg", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
		t.Fatal(err)
	}
	setWeightBatches(t, c, "cg", cg, []float32{0.4})
	ups, _ := reweightAll(t, cg, 0.1)
	last, err := c.UpdateGraph("cg", ups)
	if err != nil {
		t.Fatal(err)
	}

	entry := srv.lookupGraph("cg")
	if _, _, n := graphChain(srv, "cg"); n != 1 {
		t.Fatalf("entry after compaction holds %d lineage(s), want the snapshot epoch alone", n)
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
	_, err = c.CreateSession(SessionSpec{ID: "s2", K: 3, Delta: 0.05, Seed: 7, Graph: "cg"})
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("session on corrupted snapshot: err = %v, want a loud snapshot failure", err)
	}
}

// TestCreateRacingMutationBatch: a batch lands between createSession's
// engine build and its publication, so the batch's repair sweep cannot
// see the session. The post-publication catch-up rebuilds the engine on
// the mutated graph (exact: it holds no RR sets yet) — also when the
// batch compacted the journal past the engine's epoch. Either way it ends
// byte-identical to a fresh run there.
func TestCreateRacingMutationBatch(t *testing.T) {
	// compact-every-N: every N-th batch of the subtest compacts (0: none).
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("compact-every-%d", every), func(t *testing.T) {
			sampler := robustSampler(t)
			srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
			c := NewClient(ts.URL)
			e := firstEdge(t, sampler.Graph())
			ms := []graph.Mutation{{Op: graph.OpEdgeDelete, From: e.From, To: e.To}}
			if every == 1 {
				_, ms = reweightAll(t, sampler.Graph(), 0.1)
			}
			before := compactions(t)
			srv.createHook = func(string) {
				if _, _, err := srv.mutateGraph(srv.lookupGraph(DefaultGraphName), ms, nil); err != nil {
					t.Error(err)
				}
			}
			if _, err := c.CreateSession(SessionSpec{ID: "racer", K: 4, Delta: 0.05, Seed: 77}); err != nil {
				t.Fatal(err)
			}
			srv.createHook = nil
			if d := compactions(t) - before; d != int64(every) {
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

// TestEvictedSessionSurvivesCompaction: with MaxLoadedSessions 1, a
// session evicted at epoch 0 misses the next batch's repair sweep, and
// that batch compacts the journal. Compaction keeps the chain back to the
// evicted checkpoint's epoch, so a restart resumes it, and its next touch
// reloads, catches up and matches a fresh run on the mutated graph.
func TestEvictedSessionSurvivesCompaction(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir, MaxLoadedSessions: 1})
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
	if srv.lookup("evictee").resident.Load() {
		t.Fatal("evictee still resident, want unloaded")
	}
	ups, ms := reweightAll(t, sampler.Graph(), 0.1)
	before := compactions(t)
	if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
		t.Fatal(err)
	}
	if d := compactions(t) - before; d != 1 {
		t.Fatalf("journal compacted %d time(s) by a batch larger than the graph, want 1", d)
	}
	if _, _, n := graphChain(srv, DefaultGraphName); n != 2 {
		t.Fatalf("chain holds %d lineages after compaction, want 2 (epoch 0 kept for the evicted checkpoint)", n)
	}

	// A restart at this point resumes every checkpoint.
	if _, adopted, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir}); err != nil || len(adopted) != 1 {
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
		srv, _, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		if epoch, _, _ := graphChain(srv, DefaultGraphName); epoch != int64(2*round) {
			t.Fatalf("restart %d replayed to epoch %d, want %d", round, epoch, 2*round)
		}
		ts := httptest.NewServer(srv.Handler())
		c := NewClient(ts.URL)
		p := float32(round+1) / 10
		setWeightBatches(t, c, DefaultGraphName, base, []float32{p})
		before := compactions(t)
		ups, _ := reweightAll(t, base, p+0.05)
		if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
			t.Fatal(err)
		}
		if d := compactions(t) - before; d != 1 {
			t.Fatalf("round %d: %d compactions, want 1", round, d)
		}
		ts.Close()
	}
}

// TestJournalPrevGenerationKeepsAppending: a crash between the two renames
// of a journal rewrite leaves only the previous generation. The restart
// replays it, and the next batch must extend that history rather than
// start a journal without it, so a second restart lands on the live
// epoch.
func TestJournalPrevGenerationKeepsAppending(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL)
	ups, _ := reweightAll(t, sampler.Graph(), 0.1)
	if _, err := c.UpdateGraph(DefaultGraphName, ups); err != nil {
		t.Fatal(err)
	}
	setWeightBatches(t, c, DefaultGraphName, sampler.Graph(), []float32{0.3})
	ts.Close()
	path := MutationLogPath(dir, DefaultGraphName)
	if err := os.Rename(path, path+fsutil.PrevSuffix); err != nil {
		t.Fatal(err)
	}

	srv2, _, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if epoch, _, _ := graphChain(srv2, DefaultGraphName); epoch != 2 {
		t.Fatalf("restart on the previous journal generation at epoch %d, want 2", epoch)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	_, last := setWeightBatches(t, NewClient(ts2.URL), DefaultGraphName, sampler.Graph(), []float32{0.4})
	ts2.Close()

	srv3, _, err := restart(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if epoch, lineage, _ := graphChain(srv3, DefaultGraphName); epoch != 3 || lineage != last.Lineage {
		t.Fatalf("second restart at epoch %d lineage %.12s, want 3/%.12s", epoch, lineage, last.Lineage)
	}
}
