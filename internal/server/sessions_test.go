package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/faultinject"
)

func TestSessionCRUD(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL).Session(DefaultSessionID)

	list, err := c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != DefaultSessionID || !list[0].Loaded || list[0].K != 5 {
		t.Fatalf("initial list = %+v", list)
	}

	info, err := c.CreateSession(SessionSpec{ID: "alice", K: 3, Delta: 0.1, Seed: 5, Variant: "vanilla"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "alice" || info.K != 3 || info.Variant != "vanilla" || info.Seed != 5 || !info.Loaded {
		t.Fatalf("created session info = %+v", info)
	}

	// Name collisions, bad specs and bad ids are rejected up front.
	for _, bad := range []SessionSpec{
		{ID: "alice", K: 3, Delta: 0.1},            // duplicate
		{ID: "", K: 3, Delta: 0.1},                 // empty id
		{ID: "../escape", K: 3, Delta: 0.1},        // unsafe id
		{ID: "nok", K: 0, Delta: 0.1},              // k < 1
		{ID: "nov", K: 3, Variant: "bogus"},        // unknown variant
		{ID: "nob", K: 3, Delta: 0.1, MaxRR: 1e18}, // budget above the server's
	} {
		if _, err := c.CreateSession(bad); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}

	list, err = c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "alice" || list[1].ID != DefaultSessionID {
		t.Fatalf("list after create = %+v", list)
	}

	// Sessions are isolated: advancing alice leaves default untouched.
	alice := c.Session("alice")
	st, err := alice.Advance(500)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session != "alice" || st.NumRR != 500 {
		t.Fatalf("alice advance status = %+v", st)
	}
	if st, err = c.Status(); err != nil || st.NumRR != 0 {
		t.Fatalf("default session moved with alice: %+v (%v)", st, err)
	}
	snap, err := alice.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Session != "alice" || len(snap.Seeds) != 3 {
		t.Fatalf("alice snapshot = %+v", snap)
	}

	// Per-session labeled request counter (obs.Labeled) moved.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters[`server_session_requests_total{session="alice"}`] < 2 {
		t.Fatalf("labeled session counter missing: %v", m.Counters)
	}

	// GET one session.
	got := getJSON[SessionInfo](t, ts.URL+"/sessions/alice")
	if got.ID != "alice" || got.NumRR != 500 {
		t.Fatalf("GET /sessions/alice = %+v", got)
	}

	// Delete semantics: alice goes away fully, and so does default.
	if err := c.DeleteSession("alice"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession("alice"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if _, err := alice.Status(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("status on deleted session: %v", err)
	}
	if list, _ = c.ListSessions(); len(list) != 1 {
		t.Fatalf("list after delete = %+v", list)
	}
	if err := c.DeleteSession(DefaultSessionID); err != nil {
		t.Fatalf("deleting the default session: %v", err)
	}
}

// TestSessionWorkersBounded: a session's workers count must lie in
// [0, GOMAXPROCS], through POST /sessions and a bulk create alike; every
// later generation for the session starts min(workers, count) shards, each
// with n-entry scratch arrays. Creating a session samples nothing.
func TestSessionWorkersBounded(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, status int }{
		{procs + 1, http.StatusBadRequest},
		{-1, http.StatusBadRequest},
		{procs, http.StatusOK},
	} {
		id := fmt.Sprintf("w%d", tc.workers)
		body := fmt.Sprintf(`{"id":%q,"k":3,"workers":%d}`, id, tc.workers)
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("POST /sessions with workers %d: status %d, want %d", tc.workers, resp.StatusCode, tc.status)
		}
		bulk, err := c.BulkSessions(BulkSessionsRequest{Create: []SessionSpec{{ID: "bulk-" + id, K: 3, Workers: tc.workers}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := bulk.Results[0].Status; got != tc.status {
			t.Fatalf("bulk create with workers %d: status %d, want %d", tc.workers, got, tc.status)
		}
	}
}

// TestSessionNamedBulk: POST /sessions/bulk is the bulk API, but GET and
// DELETE /sessions/bulk address a session named "bulk" like any other id.
func TestSessionNamedBulk(t *testing.T) {
	dir := t.TempDir()
	_, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "bulk", K: 3, Delta: 0.1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("bulk").Advance(200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("bulk").Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := getJSON[SessionInfo](t, ts.URL+"/sessions/bulk"); got.ID != "bulk" || got.NumRR != 200 {
		t.Fatalf("GET /sessions/bulk = %+v", got)
	}
	if err := c.DeleteSession("bulk"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bulk.ck")); !os.IsNotExist(err) {
		t.Fatalf("bulk.ck survived DELETE /sessions/bulk (stat error %v)", err)
	}
	resp, err := http.Get(ts.URL + "/sessions/bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /sessions/bulk after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestDeletedSessionLeavesNoSeries: a deleted session's labeled series —
// a learning session's round-phase and entropy gauges included — leave
// the registry, so /metrics holds one series per live session id.
func TestDeletedSessionLeavesNoSeries(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("gone-%d", i)
		spec := SessionSpec{ID: id, K: 2, Delta: 0.1, Seed: uint64(i)}
		if i%10 == 0 {
			spec.Learn = &LearnSpec{Seed: uint64(i), RoundRR: 64}
		}
		if _, err := c.CreateSession(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Session(id).Advance(50); err != nil {
			t.Fatal(err)
		}
		if spec.Learn != nil {
			r, err := c.Session(id).StartRound()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Session(id).Observe(r.Round, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.DeleteSession(id); err != nil {
			t.Fatal(err)
		}
	}
	m := counters(t)
	names := make([]string, 0, len(m.Counters)+len(m.Gauges))
	for name := range m.Counters {
		names = append(names, name)
	}
	for name := range m.Gauges {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.Contains(name, `{session="gone-`) {
			t.Fatalf("series %s outlived its deleted session", name)
		}
	}
}

// TestSlowSessionDoesNotBlockOthers is the tentpole acceptance test: with
// a deliberately slow sampler, a huge /advance holding session A's mutex
// must not delay A's /status (lock-free mirrors) nor any request on
// session B (its own mutex).
func TestSlowSessionDoesNotBlockOthers(t *testing.T) {
	srv, ts := newSlowServer(t, Config{Batch: 200})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "b", K: 4, Delta: 0.05, Seed: 12}); err != nil {
		t.Fatal(err)
	}

	// Occupy the default session with an advance far too large to finish
	// during the test (cancelled at the end; progress is kept).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		cl := &Client{BaseURL: ts.URL, SessionID: DefaultSessionID, HTTPClient: &http.Client{Timeout: 10 * time.Minute}}
		cl.AdvanceContext(ctx, 1<<20)
	}()
	// Wait until the slow advance demonstrably holds the default session's
	// mutex (the /status mirrors only refresh once an advance completes,
	// so TryLock is the observable signal that it is in flight).
	def := srv.lookup(DefaultSessionID)
	deadline := time.Now().Add(5 * time.Second)
	for def.mu.TryLock() {
		def.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("slow advance never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Everything below must complete while that advance is in flight.
	b := c.Session("b")
	start := time.Now()
	if st := getJSON[Status](t, ts.URL+"/sessions/default/status"); st.Session != DefaultSessionID {
		t.Fatalf("status mid-advance = %+v", st)
	}
	if st, err := b.Advance(100); err != nil || st.NumRR != 100 {
		t.Fatalf("advance on b mid-advance on default: %+v (%v)", st, err)
	}
	if snap, err := b.Snapshot(); err != nil || snap.Session != "b" {
		t.Fatalf("snapshot on b mid-advance on default: %+v (%v)", snap, err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("session B served in %v while A was busy; not isolated", el)
	}
	select {
	case <-advDone:
		t.Fatal("the slow advance finished early; the test proved nothing")
	default:
	}
	cancel()
	<-advDone
}

// TestPeekSpendsNoDelta is the budget acceptance test: snapshot?peek=1
// returns the cached snapshot without touching DeltaSpent or the
// union-budget query counter, so dashboards can poll freely.
func TestPeekSpendsNoDelta(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "u", K: 5, Delta: 0.05, Seed: 21, Union: true}); err != nil {
		t.Fatal(err)
	}
	u := c.Session("u")
	if _, err := u.Advance(1000); err != nil {
		t.Fatal(err)
	}

	// No snapshot derived yet: peek is 404, never a silent derivation.
	if _, err := u.PeekSnapshot(); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("peek before first snapshot: %v", err)
	}

	first, err := u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if first.DeltaSpent != 0.05/2 {
		t.Fatalf("first union-budget snapshot spent %v, want δ/2", first.DeltaSpent)
	}

	sess := srv.lookup("u")
	sess.mu.Lock()
	queriesBefore := sess.online.Queries()
	sess.mu.Unlock()
	before := counters(t)
	for i := 0; i < 5; i++ {
		p, err := u.PeekSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if p.Alpha != first.Alpha || p.DeltaSpent != first.DeltaSpent || len(p.Seeds) != len(first.Seeds) {
			t.Fatalf("peek %d diverged from the derived snapshot: %+v vs %+v", i, p, first)
		}
	}
	after := counters(t)
	sess.mu.Lock()
	queriesAfter := sess.online.Queries()
	sess.mu.Unlock()
	if queriesAfter != queriesBefore {
		t.Fatalf("peek moved the union-budget query counter: %d → %d", queriesBefore, queriesAfter)
	}
	if d := after.Counters["core_snapshots_total"] - before.Counters["core_snapshots_total"]; d != 0 {
		t.Fatalf("peek derived %d snapshots", d)
	}

	// The next real snapshot continues the δ/2^i schedule exactly where it
	// left off — peeks spent nothing.
	second, err := u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if second.DeltaSpent != first.DeltaSpent/2 {
		t.Fatalf("second snapshot spent %v, want %v (peeks must not advance the schedule)",
			second.DeltaSpent, first.DeltaSpent/2)
	}
}

// TestEvictionReloadContinuesSampleStream is the persistence acceptance
// test: a session evicted under MaxLoadedSessions and transparently
// reloaded must continue the exact sample stream — its snapshot and its
// serialized state are byte-identical to a never-evicted run.
func TestEvictionReloadContinuesSampleStream(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir(), MaxLoadedSessions: 1})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	spec := SessionSpec{ID: "evictee", K: 4, Delta: 0.05, Seed: 77, Union: true}
	if _, err := c.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	evictee := c.Session("evictee")
	if _, err := evictee.Advance(600); err != nil {
		t.Fatal(err)
	}
	// Touching the default session makes evictee the LRU resident; the
	// reload of default pushes the table over MaxLoadedSessions=1 and
	// evicts evictee (checkpoint-then-unload).
	if _, err := c.Advance(400); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup("evictee")
	if sess.resident.Load() {
		t.Fatal("evictee still resident — eviction never happened")
	}
	if st, err := evictee.Status(); err != nil || st.Loaded || st.NumRR != 600 {
		t.Fatalf("unloaded status = %+v (%v)", st, err)
	}

	// The next touch transparently reloads and resumes the stream.
	if _, err := evictee.Advance(400); err != nil {
		t.Fatal(err)
	}
	snap, err := evictee.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same session never paused.
	ref, err := core.NewOnline(sampler, core.Options{
		K: 4, Delta: 0.05, Variant: core.Plus, Seed: 77, UnionBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetGraphIdentity(DefaultGraphName, "")
	ref.Advance(1000)
	want := ref.Snapshot()
	if snap.Alpha != want.Alpha || snap.SigmaLower != want.SigmaLower ||
		snap.SigmaUpper != want.SigmaUpper || snap.DeltaSpent != want.DeltaSpent {
		t.Fatalf("evicted+reloaded session diverged: %+v vs %v", snap, want)
	}
	for i := range want.Seeds {
		if snap.Seeds[i] != want.Seeds[i] {
			t.Fatalf("seed %d differs after eviction round trip", i)
		}
	}
	var a, b bytes.Buffer
	sess.mu.Lock()
	err = core.SaveSession(&a, sess.online)
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSession(&b, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("evicted+reloaded session state is not byte-identical to the uninterrupted run")
	}
}

// TestAdoptCheckpointDirResume is the multi-session kill-resume test: a
// server torn down without graceful shutdown (the checkpoints on disk are
// all that survives) comes back with every session adopted — including a
// BaseSeeds+Exact session, which only round-trips under OPIMS2 — and each
// continues its exact sample stream.
func TestAdoptCheckpointDirResume(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	cfg := Config{Batch: 500, CheckpointDir: dir}

	srv1 := New(robustSession(t, sampler), cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := NewClient(ts1.URL).Session(DefaultSessionID)
	augSpec := SessionSpec{
		ID: "aug", K: 3, Delta: 0.05, Seed: 31,
		Union: true, Exact: true, BaseSeeds: []int32{1, 2, 3},
	}
	if _, err := c1.CreateSession(augSpec); err != nil {
		t.Fatal(err)
	}
	aug1 := c1.Session("aug")
	if _, err := aug1.Advance(700); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Advance(500); err != nil {
		t.Fatal(err)
	}
	if _, err := aug1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulated SIGKILL: no Stop, no Shutdown — just abandon the server.
	ts1.Close()

	// Restart as opimd does: resume the default from its checkpoint, adopt
	// the rest of the directory.
	srv2 := New(robustSession(t, sampler), cfg)
	adopted, err := srv2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[0] != "aug" {
		t.Fatalf("adopted = %v, want [aug]", adopted)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { srv2.Stop(); ts2.Close() })
	c2 := NewClient(ts2.URL).Session(DefaultSessionID)

	if st, err := c2.Status(); err != nil || st.NumRR != 500 {
		t.Fatalf("default after resume: %+v (%v)", st, err)
	}
	aug2 := c2.Session("aug")
	if _, err := aug2.Advance(300); err != nil {
		t.Fatal(err)
	}
	// OPIMS2 carried BaseSeeds and Exact through the kill.
	info := getJSON[SessionInfo](t, ts2.URL+"/sessions/aug")
	if !info.Exact || len(info.BaseSeeds) != 3 {
		t.Fatalf("aug lost OPIMS2 fields through kill-resume: %+v", info)
	}
	snap, err := aug2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := core.NewOnline(sampler, core.Options{
		K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31,
		UnionBudget: true, Exact: true, BaseSeeds: []int32{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetGraphIdentity(DefaultGraphName, "")
	ref.Advance(1000)
	want := ref.Snapshot()
	if snap.Alpha != want.Alpha || snap.SigmaLower != want.SigmaLower ||
		snap.SigmaUpper != want.SigmaUpper || snap.DeltaSpent != want.DeltaSpent {
		t.Fatalf("resumed aug session diverged: %+v vs %v", snap, want)
	}
	var a, b bytes.Buffer
	sess := srv2.lookup("aug")
	sess.mu.Lock()
	err = core.SaveSession(&a, sess.online)
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSession(&b, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed aug session state is not byte-identical to the uninterrupted run")
	}
}

// TestMultiSessionStressWithEviction hammers N sessions concurrently
// under -race while MaxLoadedSessions forces constant eviction/reload
// churn, plus create/delete churn on the side. A request racing an
// eviction waits for the session lock, so every request succeeds (only a
// peek before the session's first snapshot may 404). Afterwards every
// session must still be servable.
func TestMultiSessionStressWithEviction(t *testing.T) {
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 300, CheckpointDir: t.TempDir(), MaxLoadedSessions: 2})
	c := NewClient(ts.URL)

	const sessions = 4
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		if _, err := c.CreateSession(SessionSpec{ID: ids[i], K: 3, Delta: 0.1, Seed: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions+1)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			cl := c.Session(id)
			cl.RetryBase = 2 * time.Millisecond
			cl.RetrySeed = 1
			for j := 0; j < 12; j++ {
				var err error
				switch j % 4 {
				case 0:
					_, err = cl.Advance(150)
				case 1:
					_, err = cl.Status()
				case 2:
					_, err = cl.Snapshot()
				case 3:
					if _, perr := cl.PeekSnapshot(); perr != nil && !strings.Contains(perr.Error(), "404") {
						err = perr
					}
				}
				if err != nil {
					errs <- fmt.Errorf("session %s op %d: %w", id, j, err)
					return
				}
			}
		}(id)
	}
	// Create/delete churn against the same table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 6; j++ {
			id := fmt.Sprintf("tmp%d", j)
			if _, err := c.CreateSession(SessionSpec{ID: id, K: 2, Delta: 0.1, Seed: uint64(j)}); err != nil {
				errs <- fmt.Errorf("create %s: %w", id, err)
				return
			}
			if err := c.DeleteSession(id); err != nil {
				errs <- fmt.Errorf("delete %s: %w", id, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: every session still answers, with its own RR count.
	list, err := c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != sessions+1 {
		t.Fatalf("list after stress = %+v", list)
	}
	for _, id := range ids {
		st, err := c.Session(id).Advance(100)
		if err != nil {
			t.Fatalf("session %s not servable after stress: %v", id, err)
		}
		if st.NumRR < 100 {
			t.Fatalf("session %s barely advanced: %+v", id, st)
		}
	}
}

// writerFunc adapts a function to io.Writer for checkpoint-write hooks.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// assertLoadedConsistent checks the loaded counter against table truth:
// it must equal the number of registered resident sessions, or
// pickEvictionVictim misjudges capacity forever.
func assertLoadedConsistent(t *testing.T, srv *Server) {
	t.Helper()
	srv.smu.Lock()
	var want int64
	for _, sess := range srv.sessions {
		if sess.resident.Load() {
			want++
		}
	}
	got := srv.loaded.Load()
	srv.smu.Unlock()
	if got != want {
		t.Fatalf("loaded counter = %d, want %d (sessions actually loaded)", got, want)
	}
}

// TestEvictionFailureDoesNotSpin: with an unwritable checkpoint sink,
// maybeEvict must skip the failed victim and return — not busy-loop
// re-serializing the same LRU session from the request goroutine forever.
// Failed victims stay loaded and servable, and capacity is re-enforced
// once checkpoints write again.
func TestEvictionFailureDoesNotSpin(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir(), MaxLoadedSessions: 1})
	c := NewClient(ts.URL)

	// Every checkpoint write fails from here on.
	srv.ckWrap = func(w io.Writer) io.Writer { return faultinject.TornWriter(w, 64) }

	done := make(chan error, 1)
	go func() {
		for _, id := range []string{"a", "b"} {
			if _, err := c.CreateSession(SessionSpec{ID: id, K: 3, Delta: 0.1, Seed: 7}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("createSession stuck: maybeEvict is spinning on a failing eviction")
	}

	// Nothing could be evicted, so everything is still loaded and servable.
	for _, id := range []string{DefaultSessionID, "a", "b"} {
		if st, err := c.Session(id).Advance(100); err != nil || !st.Loaded {
			t.Fatalf("session %s after failed evictions: %+v (%v)", id, st, err)
		}
	}
	assertLoadedConsistent(t, srv)

	// Checkpoints write again: the next create brings residency back down.
	srv.ckWrap = nil
	if _, err := c.CreateSession(SessionSpec{ID: "c", K: 3, Delta: 0.1, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if n := srv.loaded.Load(); n != 1 {
		t.Fatalf("loaded = %d after recovery, want 1 (MaxLoadedSessions)", n)
	}
	assertLoadedConsistent(t, srv)
}

// TestEvictionVerifyKeepsRacingMutation is the lost-update regression
// test: eviction is one critical section under the session lock, so it
// skips a session whose lock a request holds, and once the lock is free it
// writes that request's progress before unloading — the reload resumes
// from the post-request state, never rolling NumRR or the δ accounting
// backward.
func TestEvictionVerifyKeepsRacingMutation(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "v", K: 3, Delta: 0.1, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("v").Advance(500); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup("v")

	// A request holds the session lock and advances the engine.
	sess.mu.Lock()
	if srv.evictSession(sess) {
		t.Fatal("evicted a session whose lock a request holds")
	}
	sess.online.Advance(50)
	sess.refreshStatsLocked()
	sess.mu.Unlock()

	if !srv.evictSession(sess) {
		t.Fatal("eviction of the idle session failed")
	}
	if sess.resident.Load() {
		t.Fatal("victim still resident after eviction")
	}
	if status, msg := srv.lockEngine(sess); status != 0 {
		t.Fatalf("reload failed: %d %s", status, msg)
	}
	got := sess.online.NumRR()
	sess.mu.Unlock()
	if got != 550 {
		t.Fatalf("reloaded NumRR = %d, want 550 — the racing Advance was lost by eviction", got)
	}
	assertLoadedConsistent(t, srv)
}

// TestEvictionAbortsWhenSessionStartsRunning: the victim pick reads
// running without the session lock, so a /start can slip in before the
// eviction takes it. The eviction re-checks running under the lock and
// leaves such a session loaded — a running session unloaded behind
// /start's back would report Running while the sampler skips it forever.
func TestEvictionAbortsWhenSessionStartsRunning(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "r", K: 3, Delta: 0.1, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup("r")
	sess.running.Store(true) // /start after the victim pick
	if srv.evictSession(sess) {
		t.Fatal("evicted a running session")
	}
	sess.running.Store(false)
	if !sess.resident.Load() {
		t.Fatal("aborted victim is not resident")
	}
	if st, err := c.Session("r").Advance(100); err != nil || !st.Loaded {
		t.Fatalf("session after aborted eviction: %+v (%v)", st, err)
	}
	assertLoadedConsistent(t, srv)
}

// holdCheckpointWrite makes srv's next checkpoint write stop until
// release is closed; writing is closed once the write is in flight.
func holdCheckpointWrite(srv *Server) (writing, release chan struct{}) {
	writing, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.ckWrap = func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			once.Do(func() { close(writing); <-release })
			return w.Write(p)
		})
	}
	return writing, release
}

// TestDeleteDuringEvictionKeepsCounter: DELETE is never refused, and the
// loaded counter stays exact around an eviction — when the eviction's
// write fails (the session stays loaded), and when a DELETE arrives while
// the write is in flight (it waits for the session lock, then removes the
// checkpoint the eviction wrote). A deleted session is never evicted, so
// no checkpoint brings it back.
func TestDeleteDuringEvictionKeepsCounter(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "d", K: 3, Delta: 0.1, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup("d")

	srv.ckWrap = func(w io.Writer) io.Writer { return faultinject.TornWriter(w, 64) }
	if srv.evictSession(sess) {
		t.Fatal("eviction succeeded despite failing checkpoint writes")
	}
	assertLoadedConsistent(t, srv)

	writing, release := holdCheckpointWrite(srv)
	evicted := make(chan bool, 1)
	go func() { evicted <- srv.evictSession(sess) }()
	<-writing
	deleted := make(chan error, 1)
	go func() { deleted <- c.DeleteSession("d") }()
	for srv.lookup("d") != nil { // unregistered; the delete now waits for the lock
		time.Sleep(time.Millisecond)
	}
	close(release)
	if !<-evicted {
		t.Fatal("eviction did not unload the session")
	}
	if err := <-deleted; err != nil {
		t.Fatalf("delete during eviction: %v", err)
	}
	srv.ckWrap = nil
	if srv.evictSession(sess) {
		t.Fatal("evicted a deleted session")
	}
	if _, err := os.Stat(sess.ckPath); !os.IsNotExist(err) {
		t.Fatalf("deleted session's checkpoint: %v, want it removed", err)
	}
	assertLoadedConsistent(t, srv)
}

// TestRequestDuringEvictionWaitsAndReloads: a request that arrives while an
// eviction's checkpoint write is in flight waits for the session lock
// instead of answering 409, then reloads the session from the checkpoint
// the eviction wrote and is served; its RR sets count.
func TestRequestDuringEvictionWaitsAndReloads(t *testing.T) {
	sampler := robustSampler(t)
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "w", K: 3, Delta: 0.1, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("w").Advance(500); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup("w")
	writing, release := holdCheckpointWrite(srv)
	evicted := make(chan bool, 1)
	go func() { evicted <- srv.evictSession(sess) }()
	<-writing

	before := counters(t)
	type result struct {
		st  Status
		err error
	}
	served := make(chan result, 1)
	go func() {
		st, err := c.Session("w").Advance(100)
		served <- result{st, err}
	}()
	arrived := `server_session_requests_total{session="w"}`
	for counters(t).Counters[arrived] == before.Counters[arrived] {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-served:
		t.Fatalf("request during the eviction's write answered %+v (%v) before the write finished", r.st, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if !<-evicted {
		t.Fatal("eviction did not unload the idle session")
	}
	srv.ckWrap = nil
	r := <-served
	if r.err != nil || r.st.NumRR != 600 || !r.st.Loaded {
		t.Fatalf("request after the eviction: %+v (%v), want 200 with num_rr=600", r.st, r.err)
	}
	if d := counters(t).Counters["server_sessions_reloaded_total"] - before.Counters["server_sessions_reloaded_total"]; d != 1 {
		t.Fatalf("sessions_reloaded_total moved by %d, want 1", d)
	}
	assertLoadedConsistent(t, srv)
}
