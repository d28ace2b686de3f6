package main

// Process-level dynamic-graph smoke test: mutate the default graph over
// HTTP, SIGKILL the daemon before it checkpoints again, and verify the
// restart replays the mutation journal, rebases the stale checkpoint onto
// the mutated epoch, and converges byte-for-byte (snapshot JSON) with a
// run that mutated first and never crashed.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/graph"
)

func TestOpimdMutationKillResume(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()

	a := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	a.mustPost(t, "/sessions/default/advance?count=1000")
	a.mustPost(t, "/sessions/default/checkpoint") // epoch-0 checkpoint: stale after the mutation
	ginfo := a.mustGet(t, "/graphs/default")
	n, ok := ginfo["n"].(float64)
	if !ok || n <= 0 {
		t.Fatalf("graph info has no node count: %v", ginfo)
	}
	// One batch: add a node, wire it into the graph. node_add invalidates
	// every RR set, so the repair is a full (still deterministic) resample.
	batch := fmt.Sprintf(`{"updates":[{"op":"node_add"},{"op":"edge_insert","from":%d,"to":0,"p":0.25}]}`, int(n))
	up, err := a.reqBody(http.MethodPost, "/graphs/default/updates", batch)
	if err != nil {
		t.Fatal(err)
	}
	if up["epoch"] != float64(1) || up["applied"] != float64(2) {
		t.Fatalf("update response = %v", up)
	}
	if _, err := os.Stat(filepath.Join(dir, "graph-default.mutlog")); err != nil {
		t.Fatalf("mutation journal missing after an applied batch: %v", err)
	}
	a.mustPost(t, "/sessions/default/advance?count=500") // lost to the crash
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	// Restart: the journal replay must land the daemon on epoch 1 and the
	// pre-mutation checkpoint must be caught up, not refused.
	b := startDaemon(t, bin, "-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	if gi := b.mustGet(t, "/graphs/default"); gi["epoch"] != float64(1) || gi["lineage"] != up["lineage"] {
		t.Fatalf("restart did not replay the mutation journal: /graphs/default = %v, want epoch 1 lineage %v", gi, up["lineage"])
	}
	st := b.mustGet(t, "/sessions/default/status")
	if got := numRR(t, st); got != 1000 {
		t.Fatalf("resumed num_rr = %d, want 1000 (the checkpointed state)", got)
	}
	if st["graph_epoch"] != float64(1) {
		t.Fatalf("resumed graph epoch = %v, want 1", st["graph_epoch"])
	}
	b.mustPost(t, "/sessions/default/advance?count=1000")
	snapB := b.mustGet(t, "/sessions/default/snapshot")

	// Reference: fresh directory, same batch applied before any sampling,
	// straight to 2000 — no crash, no repair, same bytes.
	c := startDaemon(t, bin, "-checkpoint-dir", t.TempDir(), "-checkpoint-interval", "1h")
	if _, err := c.reqBody(http.MethodPost, "/graphs/default/updates", batch); err != nil {
		t.Fatal(err)
	}
	c.mustPost(t, "/sessions/default/advance?count=2000")
	snapC := c.mustGet(t, "/sessions/default/snapshot")

	jb, _ := json.Marshal(snapB)
	jc, _ := json.Marshal(snapC)
	if string(jb) != string(jc) {
		t.Fatalf("mutated+crashed+resumed run diverged from the mutate-first run:\nresumed: %s\nreference: %s", jb, jc)
	}
}

// Regression: when compaction folds every journal entry into its snapshot,
// the journal holds zero trailing batches but the graph is still past epoch
// 0. The restart must land on the snapshot's epoch, or resuming the
// post-mutation checkpoint dies with a graph fingerprint mismatch. A batch
// reweighting every edge journals more bytes than the graph's OPIMG2
// encoding holds, so it compacts at once.
func TestOpimdCompactedJournalKillResume(t *testing.T) {
	bin := buildOpimd(t)
	dir := t.TempDir()
	flags := []string{"-checkpoint-dir", dir, "-checkpoint-interval", "1h"}

	// The daemon's default graph, loaded the way its flags load it.
	g, _, err := cliutil.GraphSpec{Profile: "synth-pokec", Scale: 20000, Seed: 7}.Load()
	if err != nil {
		t.Fatal(err)
	}
	var ups []string
	g.Edges(func(e graph.Edge) bool {
		ups = append(ups, fmt.Sprintf(`{"op":"set_weight","from":%d,"to":%d,"p":0.05}`, e.From, e.To))
		return true
	})
	batch := `{"updates":[` + strings.Join(ups, ",") + `]}`

	a := startDaemon(t, bin, flags...)
	if fp := a.mustGet(t, "/graphs/default")["graph_fingerprint"]; fp != g.Fingerprint() {
		t.Fatalf("daemon graph fingerprints %v, the test's copy %s", fp, g.Fingerprint())
	}
	a.mustPost(t, "/sessions/default/advance?count=1000")
	if _, err := a.reqBody(http.MethodPost, "/graphs/default/updates", batch); err != nil {
		t.Fatal(err)
	}
	// The batch now lives only in graph-default.e1.snap and the journal
	// body is empty.
	if _, err := os.Stat(filepath.Join(dir, "graph-default.e1.snap")); err != nil {
		t.Fatalf("compaction snapshot missing after the batch: %v", err)
	}
	a.mustPost(t, "/sessions/default/checkpoint") // saved on the epoch-1 fingerprint
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	b := startDaemon(t, bin, flags...)
	if gi := b.mustGet(t, "/graphs/default"); gi["epoch"] != float64(1) {
		t.Fatalf("restart did not land on the compacted epoch: /graphs/default = %v", gi)
	}
	st := b.mustGet(t, "/sessions/default/status")
	if st["graph_epoch"] != float64(1) {
		t.Fatalf("resumed graph epoch = %v, want 1", st["graph_epoch"])
	}
	if got := numRR(t, st); got != 1000 {
		t.Fatalf("resumed num_rr = %d, want 1000 (the checkpointed state)", got)
	}
	b.mustPost(t, "/sessions/default/advance?count=500")
}
