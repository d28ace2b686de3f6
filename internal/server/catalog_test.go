package server

// Graph-catalog coverage: CRUD over /graphs, per-(graph, model) sampler
// sharing asserted by pointer identity, concurrent sessions on different
// graphs under -race, MaxLoadedGraphs LRU unload/reload churn, multi-graph
// checkpoint adoption, and the fingerprint guards (changed-on-disk reload,
// mismatched resume).

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// writeCatalogGraph generates a small distinct graph and writes it to an
// OPIMG2 file registerable through a path-based GraphSpec.
func writeCatalogGraph(t *testing.T, n int32, seed uint64) (string, *graph.Graph) {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 6, 0.15, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("g%d.csr", seed))
	if err := graph.SaveFileCSR(path, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// newCatalogServer is newTestServer with a caller-controlled Config.
func newCatalogServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, err := gen.PreferentialAttachment(500, 6, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sampler := rrset.NewSampler(g, diffusion.IC)
	session, err := core.NewOnline(sampler, core.Options{K: 5, Delta: 0.05, Variant: core.Plus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 500
	}
	srv := New(session, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Stop()
		srv.checkpointer.halt()
		ts.Close()
	})
	return srv, ts
}

// sessionSampler reads a session's live sampler pointer under its lock.
func sessionSampler(t *testing.T, srv *Server, id string) *rrset.Sampler {
	t.Helper()
	sess := srv.lookup(id)
	if sess == nil {
		t.Fatalf("session %q not found", id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.online.Sampler()
}

func TestGraphCatalogCRUD(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)

	// The startup flags register exactly one graph: "default", loaded,
	// referenced by the default session, with a real fingerprint.
	list, err := c.ListGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != DefaultGraphName || !list[0].Loaded || list[0].Sessions != 1 {
		t.Fatalf("initial graph list = %+v", list)
	}
	if len(list[0].Fingerprint) != 64 {
		t.Fatalf("default graph fingerprint = %q", list[0].Fingerprint)
	}

	path, g := writeCatalogGraph(t, 300, 11)
	info, err := c.CreateGraph(CreateGraphRequest{Name: "tiny", GraphSpec: cliutil.GraphSpec{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "tiny" || info.N != g.N() || info.M != g.M() || !info.Loaded || info.Sessions != 0 {
		t.Fatalf("registered graph info = %+v", info)
	}
	if info.Fingerprint != g.Fingerprint() {
		t.Fatalf("catalog fingerprint %s, file fingerprints %s", info.Fingerprint, g.Fingerprint())
	}

	// Rejections: duplicate name, invalid name, empty spec.
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "tiny", GraphSpec: cliutil.GraphSpec{Path: path}}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate register error = %v", err)
	}
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "../escape", GraphSpec: cliutil.GraphSpec{Path: path}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad-name register error = %v", err)
	}
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "empty"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty-spec register error = %v", err)
	}

	if got, err := c.GetGraph("tiny"); err != nil || got.Fingerprint != g.Fingerprint() {
		t.Fatalf("GET /graphs/tiny = %+v (%v)", got, err)
	}
	if _, err := c.GetGraph("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("GET unknown graph error = %v", err)
	}

	// Sessions bind to graphs by name; the binding shows up in the info
	// and protects the graph from deletion.
	sinfo, err := c.CreateSession(SessionSpec{ID: "a", K: 2, Delta: 0.1, Graph: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if sinfo.Graph != "tiny" || sinfo.GraphFingerprint != g.Fingerprint() {
		t.Fatalf("session info = %+v", sinfo)
	}
	if _, err := c.CreateSession(SessionSpec{ID: "b", K: 2, Delta: 0.1, Graph: "nope"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("session on unknown graph error = %v", err)
	}
	st, err := c.Session("a").Status()
	if err != nil || st.Graph != "tiny" || st.GraphFingerprint != g.Fingerprint() {
		t.Fatalf("status = %+v (%v)", st, err)
	}
	if err := c.DeleteGraph("tiny"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("delete of referenced graph error = %v", err)
	}
	if err := c.DeleteSession("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteGraph("tiny"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteGraph("tiny"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double delete error = %v", err)
	}
	if err := c.DeleteGraph(DefaultGraphName); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("default graph delete error = %v", err)
	}
}

func TestSessionsShareSamplerPerGraph(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)

	path, _ := writeCatalogGraph(t, 300, 21)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "g1", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []SessionSpec{
		{ID: "a", K: 2, Delta: 0.1, Graph: "g1"},
		{ID: "b", K: 3, Delta: 0.1, Graph: "g1", Seed: 9},
		{ID: "c", K: 2, Delta: 0.1}, // no graph → default
	} {
		if _, err := c.CreateSession(spec); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sessionSampler(t, srv, "a"), sessionSampler(t, srv, "b")
	if a != b {
		t.Fatal("two sessions on graph g1 built separate samplers")
	}
	def, other := sessionSampler(t, srv, DefaultSessionID), sessionSampler(t, srv, "c")
	if def != other {
		t.Fatal("graph-less session did not share the default graph's sampler")
	}
	if a == def {
		t.Fatal("sessions on different graphs share one sampler")
	}
}

// TestMultiGraphConcurrentSessions drives sessions on three distinct
// graphs concurrently (run with -race): advances on one graph must not
// corrupt or block progress on another.
func TestMultiGraphConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)

	for i, n := range []int32{250, 350} {
		path, _ := writeCatalogGraph(t, n, uint64(31+i))
		name := fmt.Sprintf("cg%d", i)
		if _, err := c.CreateGraph(CreateGraphRequest{Name: name, GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateSession(SessionSpec{ID: name + "-s", K: 2, Delta: 0.1, Graph: name}); err != nil {
			t.Fatal(err)
		}
	}

	ids := []string{"cg0-s", "cg1-s", DefaultSessionID}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sc := c.Session(id)
			for i := 0; i < 5; i++ {
				if _, err := sc.Advance(400); err != nil {
					t.Errorf("%s advance: %v", id, err)
					return
				}
				if _, err := sc.Snapshot(); err != nil {
					t.Errorf("%s snapshot: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for _, id := range ids {
		sc := c.Session(id)
		st, err := sc.Status()
		if err != nil || st.NumRR != 2000 {
			t.Fatalf("%s final status = %+v (%v)", id, st, err)
		}
	}
}

func TestMaxLoadedGraphsLRUUnload(t *testing.T) {
	srv, ts := newCatalogServer(t, Config{MaxLoadedGraphs: 1})
	c := NewClient(ts.URL)

	p1, g1 := writeCatalogGraph(t, 250, 41)
	p2, _ := writeCatalogGraph(t, 260, 43)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "lru1", GraphSpec: cliutil.GraphSpec{Path: p1}}); err != nil {
		t.Fatal(err)
	}
	// The default graph has no spec, so it can never be unloaded; lru1 is
	// over the cap but also the only unloadable graph, and it was just
	// registered (keep) — it stays.
	if got, _ := c.GetGraph("lru1"); !got.Loaded {
		t.Fatalf("lru1 unloaded immediately after registration: %+v", got)
	}

	// Registering lru2 pushes the idle lru1 out (LRU).
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "lru2", GraphSpec: cliutil.GraphSpec{Path: p2}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.GetGraph("lru1"); got.Loaded {
		t.Fatalf("lru1 still loaded past MaxLoadedGraphs: %+v", got)
	}
	if got, _ := c.GetGraph("lru2"); !got.Loaded {
		t.Fatalf("lru2 not resident after registration: %+v", got)
	}

	// Touching the unloaded graph reloads it transparently — and verifies
	// the reload against the recorded fingerprint — then the now-idle lru2
	// becomes the victim.
	if _, err := c.CreateSession(SessionSpec{ID: "s1", K: 2, Delta: 0.1, Graph: "lru1"}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.GetGraph("lru1")
	if !got.Loaded || got.Fingerprint != g1.Fingerprint() {
		t.Fatalf("lru1 after reload = %+v", got)
	}
	if got, _ := c.GetGraph("lru2"); got.Loaded {
		t.Fatalf("lru2 survived the reload of lru1: %+v", got)
	}
	if st, err := c.Session("s1").Advance(300); err != nil || st.NumRR != 300 {
		t.Fatalf("session on reloaded graph: %+v (%v)", st, err)
	}

	// A graph with resident sessions is never a victim: deleting the
	// session frees lru1 for unload on the next pressure.
	if g := srv.lookupGraph("lru1"); g.loadedRefs.Load() == 0 {
		t.Fatal("resident session holds no loadedRefs")
	}
	if err := c.DeleteSession("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(SessionSpec{ID: "s2", K: 2, Delta: 0.1, Graph: "lru2"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.GetGraph("lru1"); got.Loaded {
		t.Fatalf("idle lru1 not unloaded under pressure: %+v", got)
	}
}

// TestMultiGraphChurn mixes graph LRU unload churn with PR 4's session
// eviction churn (run with -race): sessions across two registered graphs
// plus the default keep advancing while both eviction mechanisms cycle
// state in and out of memory.
func TestMultiGraphChurn(t *testing.T) {
	dir := t.TempDir()
	_, ts := newCatalogServer(t, Config{
		CheckpointDir:     dir,
		MaxLoadedSessions: 2,
		MaxLoadedGraphs:   1,
	})
	c := NewClient(ts.URL)

	var sessions []string
	for i := 0; i < 2; i++ {
		path, _ := writeCatalogGraph(t, 250, uint64(51+2*i))
		name := fmt.Sprintf("churn%d", i)
		if _, err := c.CreateGraph(CreateGraphRequest{Name: name, GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			id := fmt.Sprintf("%s-s%d", name, j)
			if _, err := c.CreateSession(SessionSpec{ID: id, K: 2, Delta: 0.1, Graph: name}); err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, id)
		}
	}

	var wg sync.WaitGroup
	for _, id := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sc := c.Session(id)
			for i := 0; i < 6; i++ {
				if _, err := sc.Advance(200); err != nil {
					t.Errorf("%s advance: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// Every session stays reachable (transparently reloading its graph as
	// needed) and every advance is accounted for: none was refused.
	for _, id := range sessions {
		st, err := c.Session(id).Status()
		if err != nil {
			t.Fatalf("%s status after churn: %v", id, err)
		}
		if st.NumRR != 1200 {
			t.Fatalf("%s lost or duplicated work: %+v", id, st)
		}
	}
	list, err := c.ListGraphs()
	if err != nil || len(list) != 3 {
		t.Fatalf("graph list after churn = %+v (%v)", list, err)
	}
}

func TestAdoptCheckpointDirMultiGraph(t *testing.T) {
	dir := t.TempDir()
	p1, g1 := writeCatalogGraph(t, 250, 61)
	p2, g2 := writeCatalogGraph(t, 260, 63)

	srv1, ts1 := newCatalogServer(t, Config{CheckpointDir: dir})
	c1 := NewClient(ts1.URL)
	if _, err := c1.CreateGraph(CreateGraphRequest{Name: "alpha", GraphSpec: cliutil.GraphSpec{Path: p1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateGraph(CreateGraphRequest{Name: "beta", GraphSpec: cliutil.GraphSpec{Path: p2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateSession(SessionSpec{ID: "sa", K: 2, Delta: 0.1, Graph: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateSession(SessionSpec{ID: "sb", K: 2, Delta: 0.1, Graph: "beta"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Session("sa").Advance(500); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Session("sb").Advance(700); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(); err != nil { // final checkpoints for every session
		t.Fatal(err)
	}
	ts1.Close()

	// The restarted daemon knows nothing about alpha/beta — adoption must
	// re-register both from the specs recorded in the OPIMS3 checkpoints.
	srv2, ts2 := newCatalogServer(t, Config{CheckpointDir: dir})
	adopted, err := srv2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 2 || adopted[0] != "sa" || adopted[1] != "sb" {
		t.Fatalf("adopted = %v", adopted)
	}
	c2 := NewClient(ts2.URL)
	ga, err := c2.GetGraph("alpha")
	if err != nil || ga.Fingerprint != g1.Fingerprint() || ga.Sessions != 1 {
		t.Fatalf("alpha after adoption = %+v (%v)", ga, err)
	}
	gb, err := c2.GetGraph("beta")
	if err != nil || gb.Fingerprint != g2.Fingerprint() || gb.Sessions != 1 {
		t.Fatalf("beta after adoption = %+v (%v)", gb, err)
	}
	// Adopted sessions resumed on the right graphs with their progress.
	sta, err := c2.Session("sa").Status()
	if err != nil || sta.NumRR != 500 || sta.Graph != "alpha" || sta.GraphFingerprint != g1.Fingerprint() {
		t.Fatalf("sa after adoption = %+v (%v)", sta, err)
	}
	stb, err := c2.Session("sb").Status()
	if err != nil || stb.NumRR != 700 || stb.Graph != "beta" {
		t.Fatalf("sb after adoption = %+v (%v)", stb, err)
	}
	// The adopted session shares the catalog's sampler, not a private one.
	if sessionSampler(t, srv2, "sa") != srv2.lookupGraph("alpha").sampler {
		t.Fatal("adopted session does not share the catalog sampler")
	}
	if _, err := c2.Session("sa").Advance(100); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptRejectsMismatchedGraph forges the failure OPIMS3 exists to
// catch: a daemon restarted against a reweighted variant of the dataset
// (same node count — the pre-fingerprint check passed this) must refuse
// the checkpoint loudly instead of resuming with corrupt guarantees.
func TestAdoptRejectsMismatchedGraph(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newCatalogServer(t, Config{CheckpointDir: dir})
	c1 := NewClient(ts1.URL)
	if _, err := c1.CreateSession(SessionSpec{ID: "x", K: 2, Delta: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Session("x").Advance(300); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Second daemon: same topology, uniform-reweighted probabilities.
	g, err := gen.PreferentialAttachment(500, 6, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.Uniform, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := core.NewOnline(rrset.NewSampler(g, diffusion.IC), core.Options{K: 5, Delta: 0.05, Variant: core.Plus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(session, Config{Batch: 500, CheckpointDir: dir})
	defer srv2.Stop()
	if _, err := srv2.Resume(); !errors.Is(err, core.ErrGraphMismatch) {
		t.Fatalf("adoption on reweighted graph: err = %v, want ErrGraphMismatch", err)
	}
}

// TestGraphReloadDetectsChangedFile: a registered file edited on disk must
// fail the fingerprint re-check when the graph reloads after an unload.
func TestGraphReloadDetectsChangedFile(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)

	path, _ := writeCatalogGraph(t, 250, 71)
	if _, err := c.CreateGraph(CreateGraphRequest{Name: "mut", GraphSpec: cliutil.GraphSpec{Path: path}}); err != nil {
		t.Fatal(err)
	}
	e := srv.lookupGraph("mut")
	if !srv.unloadGraph(e) {
		t.Fatal("idle graph refused to unload")
	}

	// Overwrite the file with a different graph (same name, new content).
	other, err := gen.PreferentialAttachment(250, 6, 0.15, 99)
	if err != nil {
		t.Fatal(err)
	}
	other, err = graph.Reweight(other, graph.WeightedCascade, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the file rather than rewrite it in place: the unloaded
	// graph may still map the old one until it is collected.
	tmp := path + ".tmp"
	if err := graph.SaveFileCSR(tmp, other); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}

	_, err = c.CreateSession(SessionSpec{ID: "s", K: 2, Delta: 0.1, Graph: "mut"})
	if err == nil || !strings.Contains(err.Error(), "changed on disk") {
		t.Fatalf("session on changed graph: err = %v, want changed-on-disk refusal", err)
	}
}
