package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/faultinject"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// robustSampler builds the shared sampler for the checkpoint/chaos tests;
// a fixed graph seed so every session in a test sees the same instance.
func robustSampler(t *testing.T) *rrset.Sampler {
	t.Helper()
	g, err := gen.PreferentialAttachment(400, 5, 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rrset.NewSampler(g, diffusion.IC)
}

func robustSession(t *testing.T, sampler *rrset.Sampler) *core.Online {
	t.Helper()
	session, err := core.NewOnline(sampler, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return session
}

func newCkServer(t *testing.T, sampler *rrset.Sampler, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(robustSession(t, sampler), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Stop()
		srv.checkpointer.halt()
		ts.Close()
	})
	return srv, ts
}

// restart brings a server back the way opimd does after a crash: a fresh
// default session on sampler, New, then Resume.
func restart(t *testing.T, sampler *rrset.Sampler, cfg Config) (*Server, []string, error) {
	t.Helper()
	srv := New(robustSession(t, sampler), cfg)
	t.Cleanup(func() {
		srv.Stop()
		srv.checkpointer.halt()
	})
	adopted, err := srv.Resume()
	return srv, adopted, err
}

// engine returns the session's resident engine.
func engine(t *testing.T, srv *Server, id string) *core.Online {
	t.Helper()
	sess := srv.lookup(id)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.online == nil {
		t.Fatalf("session %q is not loaded", id)
	}
	return sess.online
}

// saveDefault checkpoints the default session now.
func saveDefault(srv *Server) (int64, error) {
	sess := srv.lookup(DefaultSessionID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return srv.checkpointLocked(sess)
}

func counters(t *testing.T) obs.Snapshot {
	t.Helper()
	return obs.Default().Snapshot()
}

func TestCheckpointEndpointRoundTrip(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ck")
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	before := counters(t)

	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=1000")
	c := NewClient(ts.URL).Session(DefaultSessionID)
	resp, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Path != path || resp.NumRR != 1000 || resp.Bytes <= 0 {
		t.Fatalf("checkpoint response %+v", resp)
	}

	srv2, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored := engine(t, srv2, DefaultSessionID); restored.NumRR() != 1000 {
		t.Fatalf("restored with num_rr=%d", restored.NumRR())
	}

	after := counters(t)
	if d := after.Counters["server_checkpoint_writes_total"] - before.Counters["server_checkpoint_writes_total"]; d != 1 {
		t.Fatalf("checkpoint writes advanced by %d, want 1", d)
	}
	if d := after.Counters["server_checkpoint_bytes_total"] - before.Counters["server_checkpoint_bytes_total"]; d != resp.Bytes {
		t.Fatalf("checkpoint bytes advanced by %d, response said %d", d, resp.Bytes)
	}
	if after.Timers["server_checkpoint_seconds"].Count < 1 {
		t.Fatal("server_checkpoint_seconds never observed")
	}
}

func TestCheckpointNotConfigured(t *testing.T) {
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 500})
	resp, err := http.Post(ts.URL+"/sessions/default/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint without config: status %d, want 404", resp.StatusCode)
	}
}

// TestKillResumeByteIdentical is the persist.go determinism invariant at
// the server layer: SIGKILL (simulated by abandoning the server without
// any graceful teardown) after a checkpoint, resume from disk, and the
// resumed session's next snapshot must be byte-identical to a run that
// never crashed.
func TestKillResumeByteIdentical(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()

	// Run A: advance 1200, checkpoint, advance 400 more that the "crash"
	// loses, then die without any shutdown path.
	srvA, tsA := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	postJSON[Status](t, tsA.URL+"/sessions/default/advance?count=1200")
	if _, err := saveDefault(srvA); err != nil {
		t.Fatal(err)
	}
	postJSON[Status](t, tsA.URL+"/sessions/default/advance?count=400")
	tsA.Close() // SIGKILL: no Stop, no final checkpoint

	// Run B: resume. The 400 post-checkpoint sets are gone; the stream
	// replays them exactly.
	srvB, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sessionB := engine(t, srvB, DefaultSessionID)
	if sessionB.NumRR() != 1200 {
		t.Fatalf("resumed with num_rr=%d, want 1200 from the checkpoint", sessionB.NumRR())
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	postJSON[Status](t, tsB.URL+"/sessions/default/advance?count=800")
	gotSnap := getJSON[SnapshotResponse](t, tsB.URL+"/sessions/default/snapshot")

	// Reference: the same session that never crashed.
	ref := robustSession(t, sampler)
	ref.SetGraphIdentity(DefaultGraphName, "")
	ref.Advance(2000)
	wantSnap := ref.Snapshot()

	if gotSnap.Alpha != wantSnap.Alpha || gotSnap.SigmaLower != wantSnap.SigmaLower ||
		gotSnap.SigmaUpper != wantSnap.SigmaUpper || gotSnap.Theta1 != wantSnap.Theta1 ||
		gotSnap.Theta2 != wantSnap.Theta2 || gotSnap.DeltaSpent != wantSnap.DeltaSpent {
		t.Fatalf("resumed snapshot %+v diverged from uninterrupted %+v", gotSnap, wantSnap)
	}
	for i := range wantSnap.Seeds {
		if gotSnap.Seeds[i] != wantSnap.Seeds[i] {
			t.Fatalf("seed %d differs: %d vs %d", i, gotSnap.Seeds[i], wantSnap.Seeds[i])
		}
	}
	// Byte-identical serialized state — queries counter included, so the
	// δ spending schedule of every FUTURE snapshot matches too.
	var a, b bytes.Buffer
	if err := core.SaveSession(&a, sessionB); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSession(&b, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed session state is not byte-identical to the uninterrupted run")
	}
}

func TestCheckpointFallbackToPrevGeneration(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ck")
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})

	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=500")
	if _, err := saveDefault(srv); err != nil {
		t.Fatal(err)
	}
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=500")
	if _, err := saveDefault(srv); err != nil {
		t.Fatal(err)
	}

	// Corrupt the current generation after the fact (bit rot, a torn
	// write that fsync lied about) — recovery must fall back to .prev.
	if err := os.WriteFile(path, []byte("OPIMS5\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := counters(t)
	srv2, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored := engine(t, srv2, DefaultSessionID); restored.NumRR() != 500 {
		t.Fatalf("previous generation holds num_rr=%d, want 500", restored.NumRR())
	}
	after := counters(t)
	if d := after.Counters["server_checkpoint_recoveries_total"] - before.Counters["server_checkpoint_recoveries_total"]; d != 1 {
		t.Fatalf("recoveries advanced by %d, want 1", d)
	}
	// And the recovered session still serves traffic.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if st := postJSON[Status](t, ts2.URL+"/sessions/default/advance?count=100"); st.NumRR != 600 {
		t.Fatalf("recovered session advance: %+v", st)
	}
}

func TestCheckpointTornWriteKeepsCurrent(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})

	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=400")
	if _, err := saveDefault(srv); err != nil {
		t.Fatal(err)
	}
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=400")

	// The second checkpoint write tears after 64 bytes.
	srv.ckWrap = func(w io.Writer) io.Writer { return faultinject.TornWriter(w, 64) }
	before := counters(t)
	if _, err := saveDefault(srv); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn checkpoint error = %v", err)
	}
	after := counters(t)
	if d := after.Counters["server_checkpoint_failures_total"] - before.Counters["server_checkpoint_failures_total"]; d != 1 {
		t.Fatalf("checkpoint failures advanced by %d, want 1", d)
	}
	srv.ckWrap = nil

	// The torn write never touched the good generation.
	before = counters(t)
	srv2, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored := engine(t, srv2, DefaultSessionID); restored.NumRR() != 400 {
		t.Fatalf("after torn write: restored with num_rr=%d, want 400 from the current generation", restored.NumRR())
	}
	if d := counters(t).Counters["server_checkpoint_recoveries_total"] - before.Counters["server_checkpoint_recoveries_total"]; d != 0 {
		t.Fatalf("restore after a torn write fell back to the previous generation (%d recoveries)", d)
	}
}

func TestPeriodicCheckpointerWritesAndStops(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ck")
	srv, ts := newCkServer(t, sampler, Config{
		Batch:              500,
		CheckpointDir:      dir,
		CheckpointInterval: 10 * time.Millisecond,
	})
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=300")
	srv.StartCheckpointer()
	srv.StartCheckpointer() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpointer wrote nothing in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Shutdown stops the checkpointer goroutine (done-channel accounting)
	// and writes a final checkpoint of the latest state.
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=300")
	srv.checkpointer.mu.Lock()
	ckDone := srv.checkpointer.done
	srv.checkpointer.mu.Unlock()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ckDone:
	default:
		t.Fatal("Shutdown returned before the checkpointer goroutine exited")
	}
	srv2, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored := engine(t, srv2, DefaultSessionID); restored.NumRR() != 600 {
		t.Fatalf("final checkpoint holds num_rr=%d, want 600", restored.NumRR())
	}
}

// TestLoadCheckpointMissing: no checkpoint generation on disk is a first
// boot — Resume keeps the fresh default session instead of failing.
func TestLoadCheckpointMissing(t *testing.T) {
	sampler := robustSampler(t)
	srv, _, err := restart(t, sampler, Config{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("missing checkpoint: Resume error = %v, want a fresh start", err)
	}
	if n := engine(t, srv, DefaultSessionID).NumRR(); n != 0 {
		t.Fatalf("fresh default session has num_rr=%d", n)
	}
}

func TestLoadCheckpointBothGenerationsBad(t *testing.T) {
	sampler := robustSampler(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ck")
	for _, p := range []string{path, path + fsutil.PrevSuffix} {
		if err := os.WriteFile(p, []byte("not a session"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := restart(t, sampler, Config{CheckpointDir: dir})
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("both-bad error = %v, want a hard failure distinct from not-exist", err)
	}
	if want := fmt.Sprintf("previous generation %s", path+fsutil.PrevSuffix); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the previous generation", err)
	}
}
