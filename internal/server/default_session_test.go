package server

// The session named "default" is an ordinary session: it is reached only
// under /sessions/{id}/, checkpointed to CheckpointDir/default.ck, resumed
// and deleted like any other.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/fsutil"
)

// TestUnprefixedSessionPathsAre404: the session endpoints exist only under
// /sessions/{id}/; the bare paths are not routes.
func TestUnprefixedSessionPathsAre404(t *testing.T) {
	_, ts := newTestServer(t, 0)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/status"},
		{http.MethodGet, "/snapshot"},
		{http.MethodPost, "/advance?count=10"},
		{http.MethodPost, "/start"},
		{http.MethodPost, "/stop"},
		{http.MethodPost, "/checkpoint"},
		{http.MethodPost, "/rounds"},
		{http.MethodPost, "/observations"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestUnscopedClientSendsNoRequest: every session-scoped method of a
// Client without a SessionID fails with an error naming Session(id), and
// nothing reaches the server.
func TestUnscopedClientSendsNoRequest(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	calls := map[string]func() error{
		"Status":              func() error { _, err := c.Status(); return err },
		"StatusContext":       func() error { _, err := c.StatusContext(ctx); return err },
		"Snapshot":            func() error { _, err := c.Snapshot(); return err },
		"SnapshotContext":     func() error { _, err := c.SnapshotContext(ctx); return err },
		"PeekSnapshot":        func() error { _, err := c.PeekSnapshot(); return err },
		"PeekSnapshotContext": func() error { _, err := c.PeekSnapshotContext(ctx); return err },
		"Advance":             func() error { _, err := c.Advance(10); return err },
		"AdvanceContext":      func() error { _, err := c.AdvanceContext(ctx, 10); return err },
		"Start":               func() error { _, err := c.Start(); return err },
		"StartContext":        func() error { _, err := c.StartContext(ctx); return err },
		"Stop":                func() error { _, err := c.Stop(); return err },
		"StopContext":         func() error { _, err := c.StopContext(ctx); return err },
		"Checkpoint":          func() error { _, err := c.Checkpoint(); return err },
		"CheckpointContext":   func() error { _, err := c.CheckpointContext(ctx); return err },
		"StartRound":          func() error { _, err := c.StartRound(); return err },
		"StartRoundContext":   func() error { _, err := c.StartRoundContext(ctx); return err },
		"Observe":             func() error { _, err := c.Observe(1, nil); return err },
		"ObserveContext":      func() error { _, err := c.ObserveContext(ctx, 1, nil); return err },
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "Session(id)") {
			t.Errorf("%s on an unscoped client: error = %v, want one naming Session(id)", name, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("unscoped session methods sent %d request(s)", n)
	}
	// Control: the same client, scoped, does reach the server.
	if _, err := c.Session(DefaultSessionID).Status(); err != nil || hits.Load() != 1 {
		t.Fatalf("scoped Status: %v, %d request(s)", err, hits.Load())
	}
}

// TestResumeAdoptsPrevOnlySession: a crash between the two renames of a
// checkpoint write leaves only <id>.ck.prev. Resume must adopt the session
// from it, and the session must continue the uninterrupted sample stream.
func TestResumeAdoptsPrevOnlySession(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	cfg := Config{Batch: 500, CheckpointDir: dir}
	opts := core.Options{K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31}

	_, ts1 := newCkServer(t, sampler, cfg)
	alice := NewClient(ts1.URL).Session("alice")
	if _, err := alice.CreateSession(SessionSpec{ID: "alice", K: opts.K, Delta: opts.Delta, Seed: opts.Seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Advance(700); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Advance(300); err != nil { // lost to the crash
		t.Fatal(err)
	}
	// SIGKILL inside the next checkpoint write: the current generation was
	// renamed to .prev, the new one never replaced it.
	ck := filepath.Join(dir, "alice.ck")
	if err := os.Rename(ck, ck+fsutil.PrevSuffix); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, adopted, err := restart(t, sampler, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[0] != "alice" {
		t.Fatalf("adopted = %v, want [alice] from alice.ck.prev", adopted)
	}
	got := engine(t, srv2, "alice")
	if got.NumRR() != 700 {
		t.Fatalf("alice resumed at num_rr=%d, want 700", got.NumRR())
	}
	got.Advance(300)

	ref, err := core.NewOnline(sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetGraphIdentity(DefaultGraphName, "")
	ref.Advance(1000)
	var a, b bytes.Buffer
	if err := core.SaveSession(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSession(&b, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("session adopted from .prev is not byte-identical to the uninterrupted run")
	}
}

// TestResumeRestoresDefaultBeforeAdopting: under MaxLoadedSessions 1 every
// adoption evicts the least-recently-used idle session. Resume must restore
// the default session before it adopts alice — evicting the still-fresh
// default would write its empty engine over default.ck.
func TestResumeRestoresDefaultBeforeAdopting(t *testing.T) {
	sampler := robustSampler(t)
	cfg := Config{Batch: 500, CheckpointDir: t.TempDir(), MaxLoadedSessions: 1}

	_, ts1 := newCkServer(t, sampler, cfg)
	c1 := NewClient(ts1.URL).Session(DefaultSessionID)
	if _, err := c1.Advance(500); err != nil {
		t.Fatal(err)
	}
	// Creating alice evicts the default session, checkpointing it at 500.
	if _, err := c1.CreateSession(SessionSpec{ID: "alice", K: 2, Delta: 0.1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Session("alice").Advance(200); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Session("alice").Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, adopted, err := restart(t, sampler, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[0] != "alice" {
		t.Fatalf("adopted = %v, want [alice]", adopted)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL).Session(DefaultSessionID)
	// The advance reloads the default session from default.ck.
	if st, err := c2.Advance(100); err != nil || st.NumRR != 600 {
		t.Fatalf("default after resume + advance 100: %+v (%v), want num_rr 600", st, err)
	}
}

// TestDeleteDefaultSessionRemovesCheckpoints: DELETE /sessions/default
// removes both checkpoint generations, so the next start builds a fresh
// default session.
func TestDeleteDefaultSessionRemovesCheckpoints(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	cfg := Config{Batch: 500, CheckpointDir: dir}

	_, ts := newCkServer(t, sampler, cfg)
	c := NewClient(ts.URL).Session(DefaultSessionID)
	for i := 0; i < 2; i++ { // two writes leave both generations
		if _, err := c.Advance(300); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ck := filepath.Join(dir, "default.ck")
	gens := []string{ck, ck + fsutil.PrevSuffix}
	for _, p := range gens {
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteSession(DefaultSessionID); err != nil {
		t.Fatal(err)
	}
	for _, p := range gens {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived DELETE /sessions/default (stat error %v)", p, err)
		}
	}
	if _, err := c.Status(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("status of the deleted default session: %v", err)
	}

	srv2, adopted, err := restart(t, sampler, cfg)
	if err != nil || len(adopted) != 0 {
		t.Fatalf("restart after delete: adopted %v, error %v", adopted, err)
	}
	if n := engine(t, srv2, DefaultSessionID).NumRR(); n != 0 {
		t.Fatalf("default session after restart has num_rr=%d, want a fresh one", n)
	}
}

// TestDeleteDefaultGraphFollowsReferenceRule: the default graph answers
// 409 while a session uses it, like any graph, and deletes once none does.
func TestDeleteDefaultGraphFollowsReferenceRule(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)
	if err := c.DeleteGraph(DefaultGraphName); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("delete of the default graph under the default session: %v, want 409", err)
	}
	if err := c.DeleteSession(DefaultSessionID); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteGraph(DefaultGraphName); err != nil {
		t.Fatalf("delete of the unreferenced default graph: %v", err)
	}
	// A session that names no graph now has none to run on.
	if _, err := c.CreateSession(SessionSpec{ID: "x", K: 2, Delta: 0.1}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("session without a graph after the default graph's delete: %v, want 404", err)
	}
}
