package main

// Process-level fault-tolerance smoke tests: build the real opimd
// binary, SIGKILL it mid-session, restart it, and check that the resumed
// run is indistinguishable from one that never crashed. These are the
// only tests in the repo that cross a process boundary — everything the
// daemon promises in docs/ROBUSTNESS.md is exercised here end to end.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildOpimd compiles the daemon once per test binary invocation.
func buildOpimd(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("signal-based tests are POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "opimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running opimd process plus its parsed base URL.
type daemon struct {
	cmd     *exec.Cmd
	baseURL string
	stdout  *bufio.Scanner
	lines   []string
}

// startDaemon launches opimd on an ephemeral port and waits until it
// serves /metrics (a -worker serves only /status). extra is appended to a
// small deterministic profile.
func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{
		"-profile", "synth-pokec", "-scale", "20000",
		"-k", "3", "-seed", "7", "-listen", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stdout: bufio.NewScanner(stdout)}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	// The daemon prints "... — listening on 127.0.0.1:PORT" once bound.
	for d.stdout.Scan() {
		line := d.stdout.Text()
		d.lines = append(d.lines, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			d.baseURL = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if d.baseURL == "" {
		t.Fatalf("opimd never reported its listen address; stdout: %q", d.lines)
	}
	// Drain remaining stdout so the child never blocks on a full pipe.
	go func() {
		for d.stdout.Scan() {
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range []string{"/metrics", "/status"} {
			if _, err := d.get(p); err == nil {
				return d
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("opimd at %s never became ready", d.baseURL)
	return nil
}

func (d *daemon) get(path string) (map[string]any, error)  { return d.req(http.MethodGet, path) }
func (d *daemon) post(path string) (map[string]any, error) { return d.req(http.MethodPost, path) }

func (d *daemon) req(method, path string) (map[string]any, error) {
	return d.reqBody(method, path, "")
}

// reqBody is req with an optional JSON request body (POST /sessions).
func (d *daemon) reqBody(method, path, body string) (map[string]any, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, d.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, body)
	}
	var out map[string]any
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func (d *daemon) mustPost(t *testing.T, path string) map[string]any {
	t.Helper()
	out, err := d.post(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (d *daemon) mustGet(t *testing.T, path string) map[string]any {
	t.Helper()
	out, err := d.get(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func numRR(t *testing.T, status map[string]any) int64 {
	t.Helper()
	v, ok := status["num_rr"].(float64)
	if !ok {
		t.Fatalf("status has no num_rr: %v", status)
	}
	return int64(v)
}

// TestOpimdKillResume: SIGKILL the daemon after a checkpoint, restart it,
// and verify (a) it resumes at the checkpointed RR count, discarding only
// the never-checkpointed tail, and (b) after catching up, its snapshot is
// identical to a run that never crashed.
func TestOpimdKillResume(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()

	// Run A: 1200 RR sets checkpointed, 400 more that will be lost to the
	// crash (checkpoint interval 1h = only explicit checkpoints).
	a := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	a.mustPost(t, "/sessions/default/advance?count=1200")
	a.mustPost(t, "/sessions/default/checkpoint")
	a.mustPost(t, "/sessions/default/advance?count=400")
	if err := a.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	a.cmd.Wait()

	// Run B: must resume at exactly the checkpoint.
	b := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	if got := numRR(t, b.mustGet(t, "/sessions/default/status")); got != 1200 {
		t.Fatalf("resumed num_rr = %d, want 1200 (the checkpointed state)", got)
	}
	b.mustPost(t, "/sessions/default/advance?count=800")
	snapB := b.mustGet(t, "/sessions/default/snapshot")

	// Reference run C: same parameters, no crash, straight to 2000.
	c := startDaemon(t, bin, "-checkpoint-dir", t.TempDir())
	c.mustPost(t, "/sessions/default/advance?count=2000")
	snapC := c.mustGet(t, "/sessions/default/snapshot")

	jb, _ := json.Marshal(snapB)
	jc, _ := json.Marshal(snapC)
	if string(jb) != string(jc) {
		t.Fatalf("resumed snapshot diverged from the never-crashed run:\nresumed: %s\nreference: %s", jb, jc)
	}
}

// TestOpimdMultiSessionKillResume: with -checkpoint-dir, every session —
// not just the default — must survive a SIGKILL. The restarted daemon
// adopts the directory's checkpoints, the adopted session still carries
// its OPIMS2-only fields (exact bounds, base seeds), and after catching
// up its snapshot matches a run that never crashed.
func TestOpimdMultiSessionKillResume(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()
	const spec = `{"id":"exp","k":4,"seed":11,"union":true,"exact":true,"base_seeds":[2,4]}`

	a := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	if _, err := a.reqBody(http.MethodPost, "/sessions", spec); err != nil {
		t.Fatal(err)
	}
	a.mustPost(t, "/sessions/exp/advance?count=900")
	a.mustPost(t, "/sessions/default/advance?count=500")
	a.mustPost(t, "/sessions/exp/checkpoint")
	a.mustPost(t, "/sessions/default/checkpoint")
	a.mustPost(t, "/sessions/exp/advance?count=300") // lost to the crash
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	b := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	if got := numRR(t, b.mustGet(t, "/sessions/default/status")); got != 500 {
		t.Fatalf("default resumed at num_rr = %d, want 500", got)
	}
	if got := numRR(t, b.mustGet(t, "/sessions/exp/status")); got != 900 {
		t.Fatalf("exp resumed at num_rr = %d, want 900 (the checkpointed state)", got)
	}
	info := b.mustGet(t, "/sessions/exp")
	if info["exact"] != true {
		t.Fatalf("exp lost its exact-bounds flag through kill-resume: %v", info)
	}
	if bs, _ := info["base_seeds"].([]any); len(bs) != 2 {
		t.Fatalf("exp lost its base seeds through kill-resume: %v", info)
	}
	b.mustPost(t, "/sessions/exp/advance?count=600")
	snapB := b.mustGet(t, "/sessions/exp/snapshot")

	// Reference run in a fresh directory: same session, no crash.
	c := startDaemon(t, bin, "-checkpoint-dir", t.TempDir())
	if _, err := c.reqBody(http.MethodPost, "/sessions", spec); err != nil {
		t.Fatal(err)
	}
	c.mustPost(t, "/sessions/exp/advance?count=1500")
	snapC := c.mustGet(t, "/sessions/exp/snapshot")

	jb, _ := json.Marshal(snapB)
	jc, _ := json.Marshal(snapC)
	if string(jb) != string(jc) {
		t.Fatalf("resumed session diverged from the never-crashed run:\nresumed: %s\nreference: %s", jb, jc)
	}
}

// TestOpimdMultiGraphKillResume: sessions on two different graphs — the
// flag-registered default and a catalog graph registered over HTTP — must
// both survive a SIGKILL. The restarted daemon knows nothing about the
// second graph; adoption re-registers it from the spec recorded in the
// OPIMS3 checkpoint, with the same fingerprint.
func TestOpimdMultiGraphKillResume(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()
	const graphSpec = `{"name":"aux","profile":"synth-pokec","scale":25000,"seed":9}`

	a := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h", "-max-loaded-graphs", "2")
	ginfo, err := a.reqBody(http.MethodPost, "/graphs", graphSpec)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := ginfo["graph_fingerprint"].(string)
	if len(fp) != 64 {
		t.Fatalf("registered graph has no fingerprint: %v", ginfo)
	}
	if _, err := a.reqBody(http.MethodPost, "/sessions", `{"id":"amber","k":3,"seed":21,"graph":"aux"}`); err != nil {
		t.Fatal(err)
	}
	a.mustPost(t, "/sessions/amber/advance?count=800")
	a.mustPost(t, "/sessions/default/advance?count=400")
	a.mustPost(t, "/sessions/amber/checkpoint")
	a.mustPost(t, "/sessions/default/checkpoint")
	a.mustPost(t, "/sessions/amber/advance?count=300") // lost to the crash
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	b := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h", "-max-loaded-graphs", "2")
	if got := numRR(t, b.mustGet(t, "/sessions/default/status")); got != 400 {
		t.Fatalf("default resumed at num_rr = %d, want 400", got)
	}
	st := b.mustGet(t, "/sessions/amber/status")
	if got := numRR(t, st); got != 800 {
		t.Fatalf("amber resumed at num_rr = %d, want 800 (the checkpointed state)", got)
	}
	if st["graph"] != "aux" || st["graph_fingerprint"] != fp {
		t.Fatalf("amber resumed on the wrong graph: %v", st)
	}
	aux := b.mustGet(t, "/graphs/aux")
	if aux["graph_fingerprint"] != fp {
		t.Fatalf("adopted graph fingerprint changed across restart: %v vs %s", aux, fp)
	}
	// The resumed session keeps sampling on its own graph.
	if got := numRR(t, b.mustPost(t, "/sessions/amber/advance?count=200")); got != 1000 {
		t.Fatalf("amber advance after resume reached %d, want 1000", got)
	}
}

// TestOpimdGracefulShutdown: SIGTERM must drain, write a final
// checkpoint, and exit 0; a restart resumes at the full pre-shutdown
// state with nothing lost.
func TestOpimdGracefulShutdown(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "default.ck")

	a := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	a.mustPost(t, "/sessions/default/advance?count=1000")
	// No explicit checkpoint: only the shutdown path can persist this.
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v (want exit code 0)", err)
		}
	case <-time.After(30 * time.Second):
		a.cmd.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no final checkpoint after graceful shutdown: %v", err)
	}

	b := startDaemon(t, bin, "-checkpoint-dir", dir)
	if got := numRR(t, b.mustGet(t, "/sessions/default/status")); got != 1000 {
		t.Fatalf("after graceful shutdown + restart num_rr = %d, want 1000", got)
	}
}

// TestOpimdRefusesCorruptCheckpoint: when both generations are bad the
// daemon must fail startup loudly rather than silently discard the
// session's δ accounting.
func TestOpimdRefusesCorruptCheckpoint(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "default.ck")
	if err := os.WriteFile(ck, []byte("OPIMS1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-profile", "synth-pokec", "-scale", "20000",
		"-k", "3", "-seed", "7", "-listen", "127.0.0.1:0",
		"-checkpoint-dir", dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("daemon started from a corrupt checkpoint; output: %s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v, want exit code 1", err)
	}
	if !strings.Contains(string(out), "cannot resume") {
		t.Fatalf("startup failure does not explain the resume refusal: %s", out)
	}
}
