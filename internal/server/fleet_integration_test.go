package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/fleet"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// End-to-end server↔fleet integration: the daemon's Generator seam. The
// determinism contract means every test can use one oracle — a plain
// local server — and demand exact equality.

func fleetTestSampler(t *testing.T) *rrset.Sampler {
	t.Helper()
	g, err := gen.PreferentialAttachment(400, 6, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rrset.NewSampler(g, diffusion.IC)
}

func newFleetServer(t *testing.T, gen core.Generator) *httptest.Server {
	t.Helper()
	sampler := fleetTestSampler(t)
	session, err := core.NewOnline(sampler, core.Options{K: 5, Delta: 0.05, Variant: core.Plus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(session, Config{Batch: 500, MaxRR: 1 << 20, Generator: gen})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Stop()
		ts.Close()
	})
	return ts
}

func advanceAndSnapshot(t *testing.T, url string, count int) (Status, SnapshotResponse) {
	t.Helper()
	st := postJSON[Status](t, fmt.Sprintf("%s/sessions/default/advance?count=%d", url, count))
	return st, getJSON[SnapshotResponse](t, url+"/sessions/default/snapshot")
}

// TestAdvanceDegradedZeroWorkers: a server whose Generator is a fleet
// with no reachable workers must still answer /advance with 200 and the
// exact same results as a purely local server — graceful degradation is
// invisible except in metrics and logs.
func TestAdvanceDegradedZeroWorkers(t *testing.T) {
	local := newFleetServer(t, nil)
	wantSt, wantSnap := advanceAndSnapshot(t, local.URL, 3000)

	empty := fleet.NewCoordinator(fleet.Config{Logf: func(string, ...any) {}})
	degraded := newFleetServer(t, empty)
	gotSt, gotSnap := advanceAndSnapshot(t, degraded.URL, 3000)

	if gotSt.NumRR != wantSt.NumRR || gotSt.EdgesExamined != wantSt.EdgesExamined {
		t.Fatalf("degraded status %+v, want %+v", gotSt, wantSt)
	}
	if fmt.Sprint(gotSnap.Seeds) != fmt.Sprint(wantSnap.Seeds) || gotSnap.Alpha != wantSnap.Alpha {
		t.Fatalf("degraded snapshot %v/%v, want %v/%v", gotSnap.Seeds, gotSnap.Alpha, wantSnap.Seeds, wantSnap.Alpha)
	}

	// An unreachable (not merely empty) fleet behaves the same.
	dead := fleet.NewCoordinator(fleet.Config{
		Workers:    []string{"http://127.0.0.1:1"},
		RPCTimeout: 500 * time.Millisecond,
		Logf:       func(string, ...any) {},
	})
	deadSrv := newFleetServer(t, dead)
	gotSt, gotSnap = advanceAndSnapshot(t, deadSrv.URL, 3000)
	if gotSt.NumRR != wantSt.NumRR || fmt.Sprint(gotSnap.Seeds) != fmt.Sprint(wantSnap.Seeds) {
		t.Fatalf("unreachable-fleet results diverged: %+v, %v", gotSt, gotSnap.Seeds)
	}
}

// TestAdvanceThroughWorkerFleet: a server generating through two real
// fleet workers answers /advance with results identical to local
// sampling, and the created-session path inherits the Generator too.
func TestAdvanceThroughWorkerFleet(t *testing.T) {
	local := newFleetServer(t, nil)
	wantSt, wantSnap := advanceAndSnapshot(t, local.URL, 3000)

	// Two worker processes, each holding its own replica (same spec ⇒
	// same fingerprint as the server's graph).
	urls := make([]string, 2)
	for i := range urls {
		w := fleet.NewWorker(fleetTestSampler(t))
		ws := httptest.NewServer(w)
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	coord := fleet.NewCoordinator(fleet.Config{
		Workers:   urls,
		ChunkSize: 500,
		Logf:      func(string, ...any) {},
	})
	fleetSrv := newFleetServer(t, coord)
	gotSt, gotSnap := advanceAndSnapshot(t, fleetSrv.URL, 3000)

	if gotSt.NumRR != wantSt.NumRR || gotSt.EdgesExamined != wantSt.EdgesExamined {
		t.Fatalf("fleet status %+v, want %+v", gotSt, wantSt)
	}
	if fmt.Sprint(gotSnap.Seeds) != fmt.Sprint(wantSnap.Seeds) || gotSnap.Alpha != wantSnap.Alpha {
		t.Fatalf("fleet snapshot %v/%v, want %v/%v", gotSnap.Seeds, gotSnap.Alpha, wantSnap.Seeds, wantSnap.Alpha)
	}
}
