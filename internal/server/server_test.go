package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

func newTestServer(t *testing.T, maxRR int64) (*Server, *httptest.Server) {
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
	srv := New(session, Config{Batch: 500, MaxRR: maxRR})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Stop()
		ts.Close()
	})
	return srv, ts
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func postJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStatusInitial(t *testing.T) {
	_, ts := newTestServer(t, 0)
	st := getJSON[Status](t, ts.URL+"/sessions/default/status")
	if st.NumRR != 0 || st.Running {
		t.Fatalf("initial status = %+v", st)
	}
}

func TestAdvanceAndSnapshot(t *testing.T) {
	_, ts := newTestServer(t, 0)
	st := postJSON[Status](t, ts.URL+"/sessions/default/advance?count=2000")
	if st.NumRR != 2000 {
		t.Fatalf("after advance: %+v", st)
	}
	snap := getJSON[SnapshotResponse](t, ts.URL+"/sessions/default/snapshot")
	if len(snap.Seeds) != 5 {
		t.Fatalf("snapshot seeds = %v", snap.Seeds)
	}
	if snap.Alpha <= 0 || snap.Alpha > 1 {
		t.Fatalf("α = %v", snap.Alpha)
	}
	if snap.Theta1+snap.Theta2 != 2000 {
		t.Fatalf("θ1+θ2 = %d", snap.Theta1+snap.Theta2)
	}
	if snap.Variant != "OPIM+" {
		t.Fatalf("variant = %q", snap.Variant)
	}
}

func TestAdvanceValidation(t *testing.T) {
	_, ts := newTestServer(t, 0)
	for _, q := range []string{"", "?count=0", "?count=-5", "?count=zebra"} {
		resp, err := http.Post(ts.URL+"/sessions/default/advance"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("advance%s: status %d", q, resp.StatusCode)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts := newTestServer(t, 0)
	before := counters(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/sessions/default/status", http.MethodGet},
		{http.MethodPost, "/sessions/default/snapshot", http.MethodGet},
		{http.MethodGet, "/sessions/default/advance", http.MethodPost},
		{http.MethodGet, "/sessions/default/start", http.MethodPost},
		{http.MethodGet, "/sessions/default/stop", http.MethodPost},
		{http.MethodPost, "/metrics", http.MethodGet},
		{http.MethodGet, "/sessions/default/checkpoint", http.MethodPost},
		{http.MethodGet, "/sessions/default/rounds", http.MethodPost},
		{http.MethodGet, "/sessions/default/observations", http.MethodPost},
		{http.MethodPut, "/graphs", http.MethodPost},
		{http.MethodPost, "/graphs/default", http.MethodDelete},
		{http.MethodGet, "/graphs/default/updates", http.MethodPost},
		{http.MethodPut, "/sessions", http.MethodGet},
		{http.MethodPut, "/sessions/bulk", http.MethodPost},
		{http.MethodPost, "/sessions/default", http.MethodDelete},
		// The mux serves HEAD on GET routes; the snapshot handler refuses
		// it, since a snapshot spends δ budget.
		{http.MethodHead, "/sessions/default/snapshot", http.MethodGet},
		{http.MethodHead, "/sessions/default/snapshot?peek=1", http.MethodGet},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, c.allow) {
			t.Fatalf("%s %s: Allow %q does not name %s", c.method, c.path, allow, c.allow)
		}
	}
	// A wrong method never reaches the endpoint's handler or its counter.
	if d := counters(t).Counters["server_status_requests_total"] - before.Counters["server_status_requests_total"]; d != 0 {
		t.Fatalf("server_status_requests_total moved by %d on a 405", d)
	}
	resp, err := http.Head(ts.URL + "/sessions/default/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status: %d, want 200", resp.StatusCode)
	}
}

func TestBackgroundLoop(t *testing.T) {
	_, ts := newTestServer(t, 0)
	st := postJSON[Status](t, ts.URL+"/sessions/default/start")
	if !st.Running {
		t.Fatal("not running after /start")
	}
	// Idempotent start.
	postJSON[Status](t, ts.URL+"/sessions/default/start")

	deadline := time.Now().Add(5 * time.Second)
	var progressed bool
	for time.Now().Before(deadline) {
		if getJSON[Status](t, ts.URL+"/sessions/default/status").NumRR > 0 {
			progressed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !progressed {
		t.Fatal("background loop generated nothing in 5s")
	}
	// Snapshot concurrently with the loop.
	snap := getJSON[SnapshotResponse](t, ts.URL+"/sessions/default/snapshot")
	if len(snap.Seeds) != 5 {
		t.Fatalf("concurrent snapshot = %+v", snap)
	}
	st = postJSON[Status](t, ts.URL+"/sessions/default/stop")
	if st.Running {
		t.Fatal("still running after /stop")
	}
	// Idempotent stop.
	postJSON[Status](t, ts.URL+"/sessions/default/stop")
	frozen := getJSON[Status](t, ts.URL+"/sessions/default/status").NumRR
	time.Sleep(50 * time.Millisecond)
	if got := getJSON[Status](t, ts.URL+"/sessions/default/status").NumRR; got != frozen {
		t.Fatalf("session advanced after stop: %d → %d", frozen, got)
	}
}

func TestBudgetStopsLoop(t *testing.T) {
	_, ts := newTestServer(t, 1200)
	postJSON[Status](t, ts.URL+"/sessions/default/start")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON[Status](t, ts.URL+"/sessions/default/status")
		if !st.Running {
			if st.NumRR != 1200 {
				t.Fatalf("stopped at %d RR sets, budget 1200", st.NumRR)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("loop did not stop at budget")
}

func TestAdvanceRejectsCountAboveBudget(t *testing.T) {
	_, ts := newTestServer(t, 1000)
	resp, err := http.Post(ts.URL+"/sessions/default/advance?count=5000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count above max_rr: status %d, want 400", resp.StatusCode)
	}
	if st := getJSON[Status](t, ts.URL+"/sessions/default/status"); st.NumRR != 0 {
		t.Fatalf("rejected advance still generated %d RR sets", st.NumRR)
	}
}

func TestAdvanceClampsToRemainingBudget(t *testing.T) {
	// Valid counts (≤ max_rr) near exhaustion are clamped to the remaining
	// budget, not rejected.
	_, ts := newTestServer(t, 1000)
	if st := postJSON[Status](t, ts.URL+"/sessions/default/advance?count=800"); st.NumRR != 800 {
		t.Fatalf("first advance: %+v", st)
	}
	if st := postJSON[Status](t, ts.URL+"/sessions/default/advance?count=800"); st.NumRR != 1000 {
		t.Fatalf("second advance not clamped to budget: %+v", st)
	}
}

func TestMetricsAdvanceAfterAdvance(t *testing.T) {
	// The metrics registry is process-global, so assert deltas, not
	// absolute values.
	_, ts := newTestServer(t, 0)
	before := getJSON[obs.Snapshot](t, ts.URL+"/metrics")

	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=2000")
	snap := getJSON[SnapshotResponse](t, ts.URL+"/sessions/default/snapshot")
	after := getJSON[obs.Snapshot](t, ts.URL+"/metrics")

	if d := after.Counters["rrset_generated_total"] - before.Counters["rrset_generated_total"]; d < 2000 {
		t.Fatalf("rrset_generated_total advanced by %d, want ≥ 2000", d)
	}
	if d := after.Counters["server_advance_requests_total"] - before.Counters["server_advance_requests_total"]; d != 1 {
		t.Fatalf("server_advance_requests_total advanced by %d, want 1", d)
	}
	if d := after.Counters["server_snapshot_requests_total"] - before.Counters["server_snapshot_requests_total"]; d != 1 {
		t.Fatalf("server_snapshot_requests_total advanced by %d, want 1", d)
	}
	if d := after.Counters["core_snapshots_total"] - before.Counters["core_snapshots_total"]; d != 1 {
		t.Fatalf("core_snapshots_total advanced by %d, want 1", d)
	}
	// The gauges must reflect the snapshot we just took.
	if got := after.Gauges["core_last_alpha"]; got != snap.Alpha {
		t.Fatalf("core_last_alpha = %v, snapshot α = %v", got, snap.Alpha)
	}
	if got := after.Gauges["core_last_theta1"]; got != float64(snap.Theta1) {
		t.Fatalf("core_last_theta1 = %v, θ1 = %d", got, snap.Theta1)
	}
	if after.Timers["server_advance_seconds"].Count < 1 {
		t.Fatal("server_advance_seconds never observed")
	}
	if after.Timers["rrset_generate_seconds"].Count <= before.Timers["rrset_generate_seconds"].Count {
		t.Fatal("rrset_generate_seconds never observed")
	}
}

func TestMetricsTextFormat(t *testing.T) {
	_, ts := newTestServer(t, 0)
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=100")
	resp, err := http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rrset_generated_total ", "server_advance_requests_total ", "rrset_generate_seconds_count "} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("text exposition missing %q:\n%s", name, body)
		}
	}
}

func TestMetricsBadFormat(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL).Session(DefaultSessionID)

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRR != 0 {
		t.Fatalf("initial status %+v", st)
	}
	st, err = c.Advance(1500)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRR != 1500 {
		t.Fatalf("after advance %+v", st)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Seeds) != 5 || snap.Alpha <= 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	if st, err = c.Start(); err != nil || !st.Running {
		t.Fatalf("start: %v %+v", err, st)
	}
	if st, err = c.Stop(); err != nil || st.Running {
		t.Fatalf("stop: %v %+v", err, st)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["rrset_generated_total"] < 1500 {
		t.Fatalf("client metrics: rrset_generated_total = %d", m.Counters["rrset_generated_total"])
	}
	if m.Gauges["core_last_alpha"] != snap.Alpha {
		t.Fatalf("client metrics: core_last_alpha = %v, want %v", m.Gauges["core_last_alpha"], snap.Alpha)
	}
}

func TestClientErrorPropagation(t *testing.T) {
	_, ts := newTestServer(t, 0)
	c := NewClient(ts.URL).Session(DefaultSessionID)
	if _, err := c.Advance(-5); err == nil {
		t.Fatal("invalid advance accepted")
	}
	bad := NewClient("http://127.0.0.1:1").Session(DefaultSessionID)
	if _, err := bad.Status(); err == nil {
		t.Fatal("unreachable server accepted")
	}
}
