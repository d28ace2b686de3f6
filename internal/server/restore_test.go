package server

// Restore-path coverage: an adopted session keeps the serving spec its
// creator asked for; the mutation sweep resamples an engine that missed an
// earlier batch instead of repairing it with the current one alone; an
// unloaded mutated graph — with an uncompacted or a compacted journal —
// reloads through that journal onto the same lineage, refusing one that
// no longer leads there; and without a checkpoint dir (no journal) a
// mutated graph is never unloaded.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// TestAdoptedSessionKeepsServingSpec: the budget, weight, rate, burst and
// learning round size a session was created with survive a restart that
// adopts it from its checkpoint, instead of falling back to server
// defaults.
func TestAdoptedSessionKeepsServingSpec(t *testing.T) {
	sampler := robustSampler(t)
	cfg := Config{Batch: 500, CheckpointDir: t.TempDir()}
	_, ts := newCkServer(t, sampler, cfg)
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{
		ID: "tenant", K: 3, Delta: 0.05, Seed: 5,
		MaxRR: 5000, Weight: 4, Rate: 7, Burst: 3,
		Learn: &LearnSpec{Seed: 1, RoundRR: 128},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("tenant").Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv2, adopted, err := restart(t, sampler, cfg)
	if err != nil || len(adopted) != 1 || adopted[0] != "tenant" {
		t.Fatalf("restart: adopted %v, err %v", adopted, err)
	}
	info := srv2.sessionInfo(srv2.lookup("tenant"))
	if info.MaxRR != 5000 || info.Weight != 4 || info.Rate != 7 || info.Burst != 3 {
		t.Fatalf("adopted serving spec = max_rr %d weight %g rate %g burst %g, want 5000/4/7/3",
			info.MaxRR, info.Weight, info.Rate, info.Burst)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	round, err := NewClient(ts2.URL).Session("tenant").StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if round.NumRR != 128 {
		t.Fatalf("adopted session's first round generated %d RR sets, want its round_rr 128", round.NumRR)
	}
}

// TestSweepResamplesEngineTwoEpochsBehind: createSession publishes an
// engine before its catch-up, so a batch's sweep can meet an engine that
// also missed the previous batch. Repairing it with the current batch
// alone would keep the sets the earlier batch invalidated; it must end
// byte-identical to a fresh run on the final graph.
func TestSweepResamplesEngineTwoEpochsBehind(t *testing.T) {
	sampler := robustSampler(t)
	srv, _ := newCkServer(t, sampler, Config{Batch: 500})
	e := srv.lookupGraph(DefaultGraphName)
	g0 := sampler.Graph()

	// Batch 1 deletes an edge into the highest in-degree node, batch 2 an
	// edge into another node.
	indeg := make([]int, g0.N())
	var edges []graph.Edge
	g0.Edges(func(ed graph.Edge) bool { indeg[ed.To]++; edges = append(edges, ed); return true })
	hub := int32(0)
	for v := range indeg {
		if indeg[v] > indeg[hub] {
			hub = int32(v)
		}
	}
	var ms1, ms2 []graph.Mutation
	for _, ed := range edges {
		if ed.To == hub && ms1 == nil {
			ms1 = []graph.Mutation{{Op: graph.OpEdgeDelete, From: ed.From, To: ed.To}}
		}
		if ed.To != hub && ed.From != hub && ms2 == nil {
			ms2 = []graph.Mutation{{Op: graph.OpEdgeDelete, From: ed.From, To: ed.To}}
		}
	}
	g1, err := g0.WithMutations(ms1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g1.WithMutations(ms2)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 77}
	const numRR = 800
	laggard, err := core.NewOnline(sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	laggard.SetGraphIdentity(DefaultGraphName, "")
	laggard.Advance(numRR)

	// The graph moves to epoch 1 while the epoch-0 engine is unpublished.
	if _, _, err := srv.mutateGraph(e, ms1, nil); err != nil {
		t.Fatal(err)
	}
	sess := &Session{ID: "laggard", maxRR: srv.cfg.MaxRR, graph: e}
	e.sessions.Add(1)
	if _, err := srv.acquireGraph(e); err != nil {
		t.Fatal(err)
	}
	sess.setOnlineLocked(laggard)
	if err := srv.addSession(sess); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.mutateGraph(e, ms2, nil); err != nil {
		t.Fatal(err)
	}

	want := refBytes(t, g2, opts, numRR)
	// The test has teeth only if batch 2 alone leaves a stale set behind.
	stale, err := core.NewOnline(sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	stale.SetGraphIdentity(DefaultGraphName, "")
	stale.Advance(numRR)
	stale.RepairForMutations(rrset.NewSampler(g2, diffusion.IC), ms2)
	var staleBytes bytes.Buffer
	if err := core.SaveSession(&staleBytes, stale); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(staleBytes.Bytes(), want) {
		t.Fatal("batch 1 invalidated no RR set; pick a different edge")
	}
	if got := saveBytes(t, srv, "laggard"); !bytes.Equal(got, want) {
		t.Fatal("engine two epochs behind is not byte-identical to a fresh run on the final graph after the sweep")
	}
}

// TestMutatedGraphReloadsThroughJournal: an unloaded catalog graph three
// batches past its base reloads from its spec plus its journal — with
// and without a compaction snapshot in it — onto the lineage it was
// unloaded at, and its reloaded session is byte-identical to a fresh run
// on the final graph. A journal that no longer leads to that lineage
// fails the reload loudly.
func TestMutatedGraphReloadsThroughJournal(t *testing.T) {
	// compact-every-N: every N-th batch of the subtest compacts (0: none).
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprintf("compact-every-%d", every), func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir, MaxLoadedSessions: 1})
			c := NewClient(ts.URL)
			path, cg := writeCatalogGraph(t, 250, 73)
			if _, err := c.CreateGraph(CreateGraphRequest{Name: "cg", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
				t.Fatal(err)
			}
			opts := core.Options{K: 3, Delta: 0.05, Variant: core.Plus, Seed: 7}
			s := c.Session("s")
			if _, err := c.CreateSession(SessionSpec{ID: "s", Graph: "cg", K: opts.K, Delta: opts.Delta, Seed: opts.Seed}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Advance(600); err != nil {
				t.Fatal(err)
			}
			var applied [][]graph.Mutation
			var last UpdateGraphResponse
			e := firstEdge(t, cg)
			for i, p := range []float32{0.3, 0.5, 0.7} {
				ups := []GraphUpdate{{Op: "set_weight", From: e.From, To: e.To, P: p}}
				compacts := every > 0 && (i+1)%every == 0
				if compacts {
					ups, _ = reweightAll(t, cg, p/4)
				}
				ms, err := updatesToMutations(ups)
				if err != nil {
					t.Fatal(err)
				}
				before := compactions(t)
				if last, err = c.UpdateGraph("cg", ups); err != nil {
					t.Fatal(err)
				}
				if d := compactions(t) - before; (d == 1) != compacts {
					t.Fatalf("batch %d: %d compaction(s), want compaction %v", i+1, d, compacts)
				}
				applied = append(applied, ms)
			}
			// Touching the default session evicts s, at the current epoch.
			if _, err := c.Session(DefaultSessionID).Advance(100); err != nil {
				t.Fatal(err)
			}
			entry := srv.lookupGraph("cg")
			if !srv.unloadGraph(entry) {
				t.Fatal("idle mutated graph refused to unload")
			}

			if _, err := s.Advance(400); err != nil {
				t.Fatal(err)
			}
			entry.mu.Lock()
			g := entry.g
			entry.mu.Unlock()
			if g == nil || g.Epoch() != 3 || g.EpochLineage() != last.Lineage {
				t.Fatalf("reloaded graph = %v, want epoch 3 lineage %.12s", g, last.Lineage)
			}
			gm := cg
			for _, ms := range applied {
				var err error
				if gm, err = gm.WithMutations(ms); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := core.NewOnline(rrset.NewSampler(gm, diffusion.IC), opts)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetGraphIdentity("cg", entry.specString)
			ref.Advance(1000)
			var want bytes.Buffer
			if err := core.SaveSession(&want, ref); err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, srv, "s"); !bytes.Equal(got, want.Bytes()) {
				t.Fatal("session on the reloaded graph is not byte-identical to a fresh run on the final graph")
			}

			// Without its journal — both generations, as a compaction
			// leaves the previous one beside it — the reload lands on the
			// base lineage.
			if err := c.DeleteSession("s"); err != nil {
				t.Fatal(err)
			}
			if !srv.unloadGraph(entry) {
				t.Fatal("graph refused second unload")
			}
			if err := os.Remove(MutationLogPath(dir, "cg")); err != nil {
				t.Fatal(err)
			}
			os.Remove(MutationLogPath(dir, "cg") + fsutil.PrevSuffix)
			_, err = c.CreateSession(SessionSpec{ID: "s2", Graph: "cg", K: 3, Delta: 0.05})
			if err == nil || !strings.Contains(err.Error(), "catalog is at lineage") {
				t.Fatalf("reload without the journal: err = %v, want a loud lineage refusal", err)
			}
		})
	}
}

// TestMutatedGraphPinnedWithoutJournal: without a CheckpointDir no batch
// is journaled, so a mutated graph could never be rebuilt; MaxLoadedGraphs
// unloads idle unmutated graphs around it instead.
func TestMutatedGraphPinnedWithoutJournal(t *testing.T) {
	srv, ts := newCatalogServer(t, Config{MaxLoadedGraphs: 1})
	c := NewClient(ts.URL)
	p1, g1 := writeCatalogGraph(t, 250, 41)
	p2, _ := writeCatalogGraph(t, 260, 43)
	p3, _ := writeCatalogGraph(t, 270, 47)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "mutated", GraphSpec: cliutil.GraphSpec{Path: p1}}); err != nil {
		t.Fatal(err)
	}
	setWeightBatches(t, c, "mutated", g1, []float32{0.3})
	for _, p := range []string{p2, p3} {
		name := strings.TrimSuffix(p[strings.LastIndex(p, "/")+1:], ".csr")
		if _, err := c.CreateGraph(CreateGraphRequest{Name: name, GraphSpec: cliutil.GraphSpec{Path: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := c.GetGraph("mutated"); !got.Loaded || got.Epoch != 1 {
		t.Fatalf("mutated graph under MaxLoadedGraphs without a journal: %+v, want resident at epoch 1", got)
	}
	if got, _ := c.GetGraph("g43"); got.Loaded {
		t.Fatalf("idle unmutated graph kept past MaxLoadedGraphs: %+v", got)
	}
	if n := srv.loadedGraphs.Load(); n != 3 {
		t.Fatalf("%d graphs resident, want the unloadable default and mutated plus the newest", n)
	}
}
