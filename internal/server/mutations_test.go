package server

// Dynamic-graph coverage: the POST /graphs/{name}/updates endpoint, the
// byte-identity invariant (mutate + incremental repair ≡ a fresh session on
// the mutated graph), journal replay across a simulated SIGKILL with stale
// checkpoints catching up on the epoch chain, the eviction→mutation→reload
// lazy catch-up path, the one-batch-at-a-time 409 gates, and a concurrent
// advance/mutate chaos run (-race) that ends in byte-identity.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// firstEdge returns an existing edge of g.
func firstEdge(t *testing.T, g *graph.Graph) graph.Edge {
	t.Helper()
	var pick graph.Edge
	found := false
	g.Edges(func(e graph.Edge) bool { pick = e; found = true; return false })
	if !found {
		t.Fatal("graph has no edges")
	}
	return pick
}

// missingEdge returns a (from, to) pair that is not an edge of g.
func missingEdge(t *testing.T, g *graph.Graph) (int32, int32) {
	t.Helper()
	for from := int32(0); from < g.N(); from++ {
		adj := map[int32]bool{from: true}
		ns, _ := g.OutNeighbors(from)
		for _, v := range ns {
			adj[v] = true
		}
		for to := int32(0); to < g.N(); to++ {
			if !adj[to] {
				return from, to
			}
		}
	}
	t.Fatal("graph is complete; no missing edge")
	return 0, 0
}

// saveBytes serializes a server session's live state under its lock.
func saveBytes(t *testing.T, srv *Server, id string) []byte {
	t.Helper()
	sess := srv.lookup(id)
	if sess == nil {
		t.Fatalf("session %q not found", id)
	}
	var buf bytes.Buffer
	sess.mu.Lock()
	err := core.SaveSession(&buf, sess.online)
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refBytes runs a fresh reference session on g with the given options to
// numRR RR sets and serializes it, labelled as the default catalog graph.
func refBytes(t *testing.T, g *graph.Graph, opts core.Options, numRR int) []byte {
	t.Helper()
	ref, err := core.NewOnline(rrset.NewSampler(g, diffusion.IC), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetGraphIdentity(DefaultGraphName, "")
	ref.Advance(numRR)
	var buf bytes.Buffer
	if err := core.SaveSession(&buf, ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGraphUpdateEndpoint(t *testing.T) {
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	g := sampler.Graph()
	e := firstEdge(t, g)
	ifrom, ito := missingEdge(t, g)
	resp, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{
		{Op: "edge_delete", From: e.From, To: e.To},
		{Op: "edge_insert", From: ifrom, To: ito, P: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Graph != DefaultGraphName || resp.Epoch != 1 || resp.Applied != 2 {
		t.Fatalf("update response = %+v", resp)
	}
	if resp.Lineage == g.Fingerprint() || len(resp.Lineage) != 64 {
		t.Fatalf("lineage did not advance along the chain: %q", resp.Lineage)
	}
	if resp.N != g.N() || resp.M != g.M() {
		t.Fatalf("n/m after delete+insert = %d/%d, want %d/%d", resp.N, resp.M, g.N(), g.M())
	}
	// The loaded default session was repaired in the same request; a batch
	// touching a real edge invalidates at least one of 1000 RR sets.
	if len(resp.Repaired) != 1 || resp.Repaired[0].Session != DefaultSessionID || resp.Repaired[0].Regenerated == 0 {
		t.Fatalf("repaired = %+v", resp.Repaired)
	}

	// The catalog now reports the epoch-1 identity, including n/m.
	info, err := c.GetGraph(DefaultGraphName)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Lineage != resp.Lineage || info.Fingerprint != resp.Fingerprint ||
		info.N != resp.N || info.M != resp.M {
		t.Fatalf("graph info after mutation = %+v, update response = %+v", info, resp)
	}
	st, err := c.Status()
	if err != nil || st.GraphEpoch != 1 || st.GraphFingerprint != resp.Fingerprint {
		t.Fatalf("status after mutation = %+v (%v)", st, err)
	}
	// The session keeps advancing on the new epoch.
	if st2, err := c.Advance(500); err != nil || st2.NumRR != 1500 {
		t.Fatalf("advance after mutation: %+v (%v)", st2, err)
	}

	// Validation: unknown graph, unknown op, invalid op, empty batch.
	if _, err := c.UpdateGraph("nope", []GraphUpdate{{Op: "node_add"}}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown graph error = %v", err)
	}
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_teleport"}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown op error = %v", err)
	}
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: ifrom, To: ifrom}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("invalid mutation error = %v", err)
	}
	if _, err := c.UpdateGraph(DefaultGraphName, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch error = %v", err)
	}
	// A rejected batch must not advance the chain.
	if info, err := c.GetGraph(DefaultGraphName); err != nil || info.Epoch != 1 {
		t.Fatalf("epoch after rejected batches = %+v (%v)", info, err)
	}
}

// TestMutateRepairMatchesFreshRun is the server-level determinism invariant:
// advance, mutate (incremental repair), advance more — the session state is
// byte-identical to a fresh session that ran on the mutated graph from the
// start.
func TestMutateRepairMatchesFreshRun(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	e := firstEdge(t, sampler.Graph())
	ms := []graph.Mutation{
		{Op: graph.OpEdgeDelete, From: e.From, To: e.To},
	}
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{
		{Op: "edge_delete", From: e.From, To: e.To},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}

	gm, err := sampler.Graph().WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	got := saveBytes(t, srv, DefaultSessionID)
	want := refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9}, 2000)
	if !bytes.Equal(got, want) {
		t.Fatal("mutated+repaired session is not byte-identical to a fresh run on the mutated graph")
	}
}

// TestMutationJournalReplayRestart: simulated SIGKILL after a mutation. On
// restart Resume replays the default graph's journal, restores a
// pre-mutation default checkpoint onto the mutated epoch and adopts a
// pre-mutation session checkpoint from the directory, and both sessions
// end byte-identical to never-crashed runs on the mutated graph.
func TestMutationJournalReplayRestart(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	cfg := Config{Batch: 500, CheckpointDir: dir}

	srv1 := New(robustSession(t, sampler), cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := NewClient(ts1.URL).Session(DefaultSessionID)

	if _, err := c1.CreateSession(SessionSpec{ID: "aug", K: 3, Delta: 0.05, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	aug1 := c1.Session("aug")
	if _, err := aug1.Advance(600); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Advance(500); err != nil {
		t.Fatal(err)
	}
	// Both checkpoints are taken at epoch 0 — they will be stale on disk.
	if _, err := aug1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	e := firstEdge(t, sampler.Graph())
	ms := []graph.Mutation{{Op: graph.OpEdgeDelete, From: e.From, To: e.To}}
	up, err := c1.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: e.From, To: e.To}})
	if err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 1 || len(up.Repaired) != 2 {
		t.Fatalf("update response = %+v, want epoch 1 with both loaded sessions repaired", up)
	}
	// Simulated SIGKILL: no graceful shutdown, no re-checkpoint — only the
	// epoch-0 checkpoints and the mutation journal survive.
	ts1.Close()

	// Restart, the way opimd does: New on the spec-loaded base graph, then
	// Resume, which replays the journal before restoring the checkpoints.
	base := robustSampler(t).Graph()
	before := counters(t).Counters["server_sessions_caught_up_total"]
	srv2 := New(robustSession(t, rrset.NewSampler(base, diffusion.IC)), Config{Batch: 500, CheckpointDir: dir})
	adopted, err := srv2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if epoch, lineage, n := graphChain(srv2, DefaultGraphName); epoch != 1 || lineage != up.Lineage || n != 2 {
		t.Fatalf("journal replay: epoch=%d lineage=%q with %d lineages, want 1/%q with 2", epoch, lineage, n, up.Lineage)
	}
	if d := counters(t).Counters["server_sessions_caught_up_total"] - before; d != 2 {
		t.Fatalf("stale checkpoints: %d caught up, want both the default and aug caught up on resume", d)
	}
	if def := engine(t, srv2, DefaultSessionID); def.NumRR() != 500 {
		t.Fatalf("resumed default num_rr = %d, want 500", def.NumRR())
	}
	if len(adopted) != 1 || adopted[0] != "aug" {
		t.Fatalf("adopted = %v, want [aug]", adopted)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		srv2.Stop()
		srv2.checkpointer.halt()
		ts2.Close()
	})
	c2 := NewClient(ts2.URL).Session(DefaultSessionID)

	if st, err := c2.Status(); err != nil || st.NumRR != 500 || st.GraphEpoch != 1 {
		t.Fatalf("default after replayed restart: %+v (%v)", st, err)
	}
	if _, err := c2.Advance(1500); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Session("aug").Advance(600); err != nil {
		t.Fatal(err)
	}

	gm, err := base.WithMutations(ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, srv2, DefaultSessionID); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9}, 2000)) {
		t.Fatal("replayed default session diverged from a never-crashed run on the mutated graph")
	}
	if got := saveBytes(t, srv2, "aug"); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31}, 1200)) {
		t.Fatal("adopted stale session diverged from a never-crashed run on the mutated graph")
	}
}

// TestEvictedSessionCatchesUpAfterMutation: a session evicted before a
// mutation holds an epoch-0 checkpoint on disk and misses the repair sweep;
// its next touch reloads through restore, which must place the
// checkpoint on the epoch chain and regenerate exactly the missed batches.
func TestEvictedSessionCatchesUpAfterMutation(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir(), MaxLoadedSessions: 1})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.CreateSession(SessionSpec{ID: "evictee", K: 4, Delta: 0.05, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	evictee := c.Session("evictee")
	if _, err := evictee.Advance(600); err != nil {
		t.Fatal(err)
	}
	// Touching the default session evicts evictee (checkpoint-then-unload).
	if _, err := c.Advance(400); err != nil {
		t.Fatal(err)
	}
	if srv.lookup("evictee").resident.Load() {
		t.Fatal("evictee still resident, want unloaded")
	}

	e := firstEdge(t, sampler.Graph())
	up, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: e.From, To: e.To}})
	if err != nil {
		t.Fatal(err)
	}
	// Only the loaded default session is in the sweep.
	if len(up.Repaired) != 1 || up.Repaired[0].Session != DefaultSessionID {
		t.Fatalf("repaired = %+v, want only the default session", up.Repaired)
	}

	before := counters(t).Counters["server_sessions_caught_up_total"]
	if _, err := evictee.Advance(400); err != nil {
		t.Fatal(err)
	}
	if after := counters(t).Counters["server_sessions_caught_up_total"]; after != before+1 {
		t.Fatalf("sessions_caught_up_total = %d, want %d — reload did not catch up from the chain", after, before+1)
	}

	gm, err := sampler.Graph().WithMutations([]graph.Mutation{{Op: graph.OpEdgeDelete, From: e.From, To: e.To}})
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, srv, "evictee"); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 77}, 1000)) {
		t.Fatal("evicted session's catch-up diverged from a fresh run on the mutated graph")
	}
}

// TestMutationConflict409: while a batch is mid-application the graph
// answers 409 to a second batch, but engine-touching session traffic is
// served, and batches are accepted again as soon as the flag clears.
func TestMutationConflict409(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	c := NewClient(ts.URL).Session(DefaultSessionID)

	e := srv.lookupGraph(DefaultGraphName)
	if e == nil {
		t.Fatal("default graph entry missing")
	}
	e.mutating.Store(true)
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "node_add"}}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("concurrent batch error = %v, want 409", err)
	}
	resp, err := http.Post(ts.URL+"/sessions/default/advance?count=100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance during mutation: status %d, want 200", resp.StatusCode)
	}
	e.mutating.Store(false)
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "node_add"}}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConflictCarriesNoRetryAfter: a 409 carries no Retry-After. The
// batch it met lasts milliseconds, so the client's own backoff is the
// right wait, not a whole-second hint. With a batch mid-application on the
// default graph, a second batch, a learning round whose realization meets
// it, and DELETE of the graph while sessions reference it each answer 409
// with no hint.
func TestBatchConflictCarriesNoRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	if _, err := NewClient(ts.URL).CreateSession(SessionSpec{ID: "learner", K: 3, Learn: &LearnSpec{Seed: 1, RoundRR: 64}}); err != nil {
		t.Fatal(err)
	}
	e := srv.lookupGraph(DefaultGraphName)
	e.mutating.Store(true)
	defer e.mutating.Store(false)
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/graphs/default/updates", `{"updates":[{"op":"node_add"}]}`},
		{http.MethodPost, "/sessions/learner/rounds", ""},
		{http.MethodDelete, "/graphs/default", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s %s: status %d, want 409", tc.method, tc.path, resp.StatusCode)
		}
		if hint := resp.Header.Get("Retry-After"); hint != "" {
			t.Fatalf("%s %s: 409 carries Retry-After %q", tc.method, tc.path, hint)
		}
	}
}

// TestDeleteGraphExcludesBatch: a batch that resolved its graph before a
// DELETE removed it must not apply to the removed entry — its journal
// would outlive the graph and break the next registration under the name.
func TestDeleteGraphExcludesBatch(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newCatalogServer(t, Config{CheckpointDir: dir})
	c := NewClient(ts.URL)

	spec := cliutil.GraphSpec{Profile: "synth-pokec", Scale: 6400}
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "g", GraphSpec: spec}); err != nil {
		t.Fatal(err)
	}
	stale := srv.lookupGraph("g") // resolved, as handleGraphUpdates does, before the delete
	if status, err := srv.removeGraph("g"); err != nil {
		t.Fatalf("delete: %d %v", status, err)
	}
	ms, err := updatesToMutations([]GraphUpdate{{Op: "node_add"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, status, err := srv.mutateGraph(stale, ms, nil); status != http.StatusNotFound {
		t.Fatalf("batch on the deleted graph: status %d (%v), want 404", status, err)
	}
	if _, err := os.Stat(MutationLogPath(dir, "g")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("batch on the deleted graph left a journal (stat error %v)", err)
	}
	spec.Scale = 3200 // a different base graph under the same name
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "g", GraphSpec: spec}); err != nil {
		t.Fatalf("re-registering g: %v", err)
	}
}

// TestDeleteGraphDuringBatch409: DELETE /graphs/{name} answers 409 while a
// batch applies to the graph, and succeeds once it is done.
func TestDeleteGraphDuringBatch409(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)
	path, _ := writeCatalogGraph(t, 200, 5)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "g", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
		t.Fatal(err)
	}
	e := srv.lookupGraph("g")
	e.mutating.Store(true)
	if err := c.DeleteGraph("g"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("delete during a batch: error = %v, want 409", err)
	}
	e.mutating.Store(false)
	if err := c.DeleteGraph("g"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLabelsGraphEpoch: every snapshot names the epoch of the
// graph its RR sets were sampled on, and the peek path carries the label.
func TestSnapshotLabelsGraphEpoch(t *testing.T) {
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 500})
	c := NewClient(ts.URL).Session(DefaultSessionID)
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if snap, err := c.Snapshot(); err != nil || snap.GraphEpoch != 0 {
		t.Fatalf("snapshot before any batch: %+v (%v), want graph_epoch 0", snap, err)
	}
	e := firstEdge(t, sampler.Graph())
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: e.From, To: e.To}}); err != nil {
		t.Fatal(err)
	}
	if snap, err := c.Snapshot(); err != nil || snap.GraphEpoch != 1 {
		t.Fatalf("snapshot after one batch: %+v (%v), want graph_epoch 1", snap, err)
	}
	if peek, err := c.PeekSnapshot(); err != nil || peek.GraphEpoch != 1 {
		t.Fatalf("peek after one batch: %+v (%v), want graph_epoch 1", peek, err)
	}
}

// TestPeekSurvivesBatch: a batch on the graph keeps the last derived
// snapshot for peek. It still names the epoch its RR sets were sampled on,
// which a client compares with /status's graph_epoch to see that a batch
// has landed since.
func TestPeekSurvivesBatch(t *testing.T) {
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 500})
	c := NewClient(ts.URL).Session(DefaultSessionID)
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e := firstEdge(t, sampler.Graph())
	if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{{Op: "edge_delete", From: e.From, To: e.To}}); err != nil {
		t.Fatal(err)
	}
	peek, err := c.PeekSnapshot()
	if err != nil {
		t.Fatalf("peek after a batch: %v", err)
	}
	if !slices.Equal(peek.Seeds, snap.Seeds) || peek.Alpha != snap.Alpha || peek.GraphEpoch != 0 {
		t.Fatalf("peek after a batch = %+v, want the derived snapshot %+v at graph_epoch 0", peek, snap)
	}
	if st, err := c.Status(); err != nil || st.GraphEpoch != 1 {
		t.Fatalf("status after a batch: %+v (%v), want graph_epoch 1", st, err)
	}
}

// TestMutationChaos drives concurrent advances and mutation batches (run
// with -race): every request succeeds — an advance racing the repair sweep
// waits for the session lock — and at the end the session must be
// byte-identical to a fresh run on the final graph — every interleaving of
// repair and sampling collapses to the same bytes.
func TestMutationChaos(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	e := firstEdge(t, sampler.Graph())
	const batches = 12
	var applied [][]graph.Mutation

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw := NewClient(ts.URL).Session(DefaultSessionID)
			for i := 0; i < 15; i++ {
				if _, err := cw.Advance(100); err != nil {
					t.Errorf("advance: %v", err)
					return
				}
			}
		}()
	}
	// The single mutator alternates delete/insert of one edge, so every
	// batch is valid against the sequentially-evolving graph.
	wg.Add(1)
	go func() {
		defer wg.Done()
		present := true
		for len(applied) < batches {
			var up GraphUpdate
			var m graph.Mutation
			if present {
				up = GraphUpdate{Op: "edge_delete", From: e.From, To: e.To}
				m = graph.Mutation{Op: graph.OpEdgeDelete, From: e.From, To: e.To}
			} else {
				up = GraphUpdate{Op: "edge_insert", From: e.From, To: e.To, P: e.P}
				m = graph.Mutation{Op: graph.OpEdgeInsert, From: e.From, To: e.To, P: e.P}
			}
			if _, err := c.UpdateGraph(DefaultGraphName, []GraphUpdate{up}); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			applied = append(applied, []graph.Mutation{m})
			present = !present
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRR != 2*15*100 {
		t.Fatalf("num_rr = %d, want %d", st.NumRR, 2*15*100)
	}
	if st.GraphEpoch != int64(len(applied)) {
		t.Fatalf("graph epoch = %d after %d applied batches", st.GraphEpoch, len(applied))
	}

	gm := sampler.Graph()
	for _, ms := range applied {
		if gm, err = gm.WithMutations(ms); err != nil {
			t.Fatal(err)
		}
	}
	if got := saveBytes(t, srv, DefaultSessionID); !bytes.Equal(got,
		refBytes(t, gm, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9}, int(st.NumRR))) {
		t.Fatal("chaos run is not byte-identical to a fresh run on the final graph")
	}
}
