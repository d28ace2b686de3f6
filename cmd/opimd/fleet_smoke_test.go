package main

// Fleet smoke test across real process boundaries: three opimd -worker
// processes, a coordinator daemon leasing RR generation to them, and a
// SIGKILL delivered to one worker mid-generation. The run must complete
// and its results must be byte-for-byte the single-process baseline —
// the fleet changes where samples are computed, never what they are.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// startFleetWorker launches one opimd -worker on an ephemeral port.
func startFleetWorker(t *testing.T, bin string) *daemon {
	t.Helper()
	return startDaemon(t, bin, "-worker")
}

func TestOpimdFleetWorkerKillSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	bin := buildOpimd(t)

	// Baseline: a plain single-process daemon. The batch is sized so the
	// fleet run takes long enough (hundreds of leases) that the SIGKILL
	// below reliably lands mid-generation.
	const advance = "/sessions/default/advance?count=300000"
	baseline := startDaemon(t, bin)
	baseline.mustPost(t, advance)
	wantStatus := baseline.mustGet(t, "/sessions/default/status")
	wantSnap := baseline.mustGet(t, "/sessions/default/snapshot")
	baseline.cmd.Process.Kill()
	baseline.cmd.Wait()

	// The fleet: three workers holding replicas of the same profile
	// (identical spec ⇒ identical fingerprint), and a coordinator
	// daemon leasing to them in small chunks so the kill lands between
	// leases, not after the whole batch.
	w1 := startFleetWorker(t, bin)
	w2 := startFleetWorker(t, bin)
	w3 := startFleetWorker(t, bin)
	coord := startDaemon(t, bin,
		"-fleet", strings.Join([]string{w1.baseURL, w2.baseURL, w3.baseURL}, ","),
		"-fleet-chunk", "1000",
		"-fleet-rpc-timeout", "10s",
	)

	// Advance in the background; SIGKILL w2 as soon as the coordinator has
	// had a lease served (its first fleet RPC returned), so the kill lands
	// early in dispatch however fast the machine is. w2's in-flight lease
	// dies with it and must be reassigned.
	advErr := make(chan error, 1)
	go func() {
		_, err := coord.post(advance)
		advErr <- err
	}()
	for deadline := time.Now().Add(time.Minute); leasesServed(t, coord) < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("coordinator served no fleet lease within a minute")
		}
	}
	select {
	case err := <-advErr:
		t.Fatalf("advance finished before the kill (err=%v); batch too small to exercise mid-run worker death", err)
	default:
	}
	if err := w2.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}
	w2.cmd.Wait()

	select {
	case err := <-advErr:
		if err != nil {
			t.Fatalf("advance through a degraded fleet failed: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("advance wedged after worker kill; lease reassignment failed")
	}

	gotStatus := coord.mustGet(t, "/sessions/default/status")
	gotSnap := coord.mustGet(t, "/sessions/default/snapshot")
	for _, key := range []string{"num_rr", "edges_examined"} {
		if fmt.Sprint(gotStatus[key]) != fmt.Sprint(wantStatus[key]) {
			t.Fatalf("%s = %v, baseline %v — fleet run diverged from single-process run",
				key, gotStatus[key], wantStatus[key])
		}
	}
	for _, key := range []string{"seeds", "alpha", "sigma_lower", "sigma_upper"} {
		if fmt.Sprint(gotSnap[key]) != fmt.Sprint(wantSnap[key]) {
			t.Fatalf("snapshot %s = %v, baseline %v — fleet run diverged from single-process run",
				key, gotSnap[key], wantSnap[key])
		}
	}

	// The two surviving workers must have carried the batch: each
	// healthy worker should have served at least one lease.
	w1.cmd.Process.Kill()
	w3.cmd.Process.Kill()
}

// leasesServed reads timers.fleet_rpc_seconds.count from d's /metrics: the
// number of fleet RPCs that have returned.
func leasesServed(t *testing.T, d *daemon) float64 {
	t.Helper()
	timers, _ := d.mustGet(t, "/metrics")["timers"].(map[string]any)
	rpc, _ := timers["fleet_rpc_seconds"].(map[string]any)
	n, _ := rpc["count"].(float64)
	return n
}
