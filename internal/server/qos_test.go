package server

// Tests for the multi-tenant serving discipline (qos.go): token buckets,
// the bounded admission queue, honest Retry-After derivation, deficit-
// weighted fair sampling, the bulk session API, and the client-side
// retry-stampede and keep-alive regressions.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/obs"
)

// postSpec creates a session over the API and fails the test on non-200.
func postSpec(t *testing.T, url string, spec SessionSpec) SessionInfo {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := make([]byte, 256)
		n, _ := resp.Body.Read(msg)
		t.Fatalf("POST /sessions %q: status %d: %s", spec.ID, resp.StatusCode, msg[:n])
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestTokenBucketTakeAndRefill(t *testing.T) {
	b := newTokenBucket(10, 2) // 10 tokens/s, depth 2, starts full
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d refused on a full bucket", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("take succeeded on an empty bucket")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("empty-bucket wait %v, want (0, 100ms] at 10 tokens/s", wait)
	}
	// One token accrues after 100ms.
	if ok, _ := b.take(now.Add(101 * time.Millisecond)); !ok {
		t.Fatal("token did not refill at the configured rate")
	}
	// The bucket never exceeds its burst: after a long idle stretch,
	// exactly burst takes succeed.
	later := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(later); !ok {
			t.Fatalf("take %d refused after refill to burst", i)
		}
	}
	if ok, _ := b.take(later); ok {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

func TestTokenBucketDefaultBurst(t *testing.T) {
	if b := newTokenBucket(8, 0); b.burst != 8 {
		t.Fatalf("default burst %g, want rate 8", b.burst)
	}
	if b := newTokenBucket(0.25, 0); b.burst != 1 {
		t.Fatalf("default burst %g, want floor of 1 for sub-1 rates", b.burst)
	}
}

// TestRetryAfterDerivedFromLoad: the Retry-After hint must follow queue
// depth and measured service time, not a constant.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	s := &Server{cfg: Config{MaxInflight: 2}}
	s.svc.observe(2 * time.Second) // first observation seeds the EWMA exactly
	s.admQueued.Store(5)
	// Expected wait for a new arrival: (5+1) × 2s / 2 slots = 6s.
	if got := s.retryAfterSeconds(); got != 6 {
		t.Fatalf("retryAfterSeconds = %d, want 6 (depth 6 × 2s / 2 slots)", got)
	}
	s.admQueued.Store(0)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfterSeconds = %d, want 1 (single-request estimate rounds up)", got)
	}
	// Deep queue + slow service clamps at the maximum.
	s.admQueued.Store(1000)
	if got := s.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Fatalf("retryAfterSeconds = %d, want clamp %d", got, maxRetryAfterSeconds)
	}
}

// TestAdmitQueueGrantsFreedSlot: a request arriving over capacity parks
// in the queue and is served as soon as the slot frees — the behavior the
// old hard shed could not provide.
func TestAdmitQueueGrantsFreedSlot(t *testing.T) {
	s := &Server{cfg: Config{MaxInflight: 1}}
	s.admSlots = make(chan struct{}, 1)
	s.admMaxQueue = 2
	s.admMaxWait = time.Second
	s.admSlots <- struct{}{} // occupy the only slot
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-s.admSlots // slot frees while the request is queued
	}()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/status", nil)
	if !s.admitQueue(rec, req) {
		t.Fatalf("queued request was rejected although the slot freed: %d %s", rec.Code, rec.Body)
	}
	<-s.admSlots // release what admitQueue acquired
}

// TestAdmitQueueRejectsWithHonestHint: when the slot never frees, the
// queued request gets 429 with a Retry-After derived from live state.
func TestAdmitQueueRejectsWithHonestHint(t *testing.T) {
	s := &Server{cfg: Config{MaxInflight: 1}}
	s.admSlots = make(chan struct{}, 1)
	s.admMaxQueue = 2
	s.admMaxWait = 50 * time.Millisecond
	s.admSlots <- struct{}{}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/status", nil)
	if s.admitQueue(rec, req) {
		t.Fatal("admitQueue granted a slot that was never released")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Queue disabled entirely: immediate rejection, no parking.
	s.admMaxQueue = 0
	start := time.Now()
	rec = httptest.NewRecorder()
	if s.admitQueue(rec, req) {
		t.Fatal("admitQueue granted with a full slot and no queue")
	}
	if el := time.Since(start); el > 20*time.Millisecond {
		t.Fatalf("queueless rejection took %v, want immediate", el)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queueless rejection status %d, want 429", rec.Code)
	}
}

// TestAdmissionQueueSmoothsBursts: with MaxInflight=1 and a queue as deep
// as the burst, a burst of cheap requests all succeed — the queue absorbs
// what the old limiter would have shed. (The default queue, 2×MaxInflight,
// would have to shed most of a concurrent burst of 10.)
func TestAdmissionQueueSmoothsBursts(t *testing.T) {
	_, ts := newSlowServer(t, Config{Batch: 500, MaxInflight: 1, MaxQueue: 10})
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/sessions/default/status")
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("burst /status: %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionRateLimit: every token-charged operation answers a tenant
// over its rate with 429 — a per-session route with the token wait as
// Retry-After, a bulk entry with a message naming the rate — while
// monitoring (/status, peek) and /stop stay free, and an advance refused
// for its count pays no token.
func TestSessionRateLimit(t *testing.T) {
	_, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, MaxRR: 1 << 20, CheckpointDir: t.TempDir()})
	call := func(method, path, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp, string(msg)
	}
	// Each operation gets its own session, rate 0.5/s and burst 1: the
	// first call spends the one token, the second is refused.
	throttled := func(id string) {
		t.Helper()
		postSpec(t, ts.URL, SessionSpec{ID: id, K: 3, MaxRR: 4096, Rate: 0.5, Burst: 1, Learn: &LearnSpec{Seed: 1, RoundRR: 64}})
	}
	for _, op := range []struct{ name, method, path, body string }{
		{"rounds", http.MethodPost, "/rounds", ""},
		{"observations", http.MethodPost, "/observations", `{"round":0,"attempts":[]}`},
		{"snapshot", http.MethodGet, "/snapshot", ""},
		{"advance", http.MethodPost, "/advance?count=100", ""},
		{"start", http.MethodPost, "/start", ""},
		{"checkpoint", http.MethodPost, "/checkpoint", ""},
	} {
		session := "/sessions/" + op.name
		throttled(op.name)
		if resp, msg := call(op.method, session+op.path, op.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("first %s inside burst: status %d (%s)", op.name, resp.StatusCode, msg)
		}
		resp, msg := call(op.method, session+op.path, op.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-rate %s: status %d, want 429 (%s)", op.name, resp.StatusCode, msg)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("rate-limited %s: 429 without Retry-After", op.name)
		}
		if !strings.Contains(msg, "over its request rate") {
			t.Fatalf("%s: 429 body %q does not name the rate limit", op.name, msg)
		}
		// A throttled tenant can still observe and stop its session.
		if resp, msg := call(http.MethodGet, session+"/status", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("/status blocked for a throttled tenant: status %d (%s)", resp.StatusCode, msg)
		}
		if st := postJSON[Status](t, ts.URL+session+"/stop"); st.Running {
			t.Fatalf("/stop blocked for a throttled tenant after %s", op.name)
		}
	}
	if resp, msg := call(http.MethodGet, "/sessions/snapshot/snapshot?peek=1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("peek blocked for a throttled tenant: status %d (%s)", resp.StatusCode, msg)
	}
	if st := getJSON[Status](t, ts.URL+"/sessions/advance/status"); st.NumRR != 100 {
		t.Fatalf("/status wrong for a throttled tenant: %+v", st)
	}

	// Bulk start and advance entries pay the token too; a per-op 429
	// carries no header, so its message names the rate.
	c := NewClient(ts.URL)
	for _, op := range []struct {
		name string
		req  BulkSessionsRequest
	}{
		{"bulk-start", BulkSessionsRequest{Start: []string{"bulk-start"}}},
		{"bulk-advance", BulkSessionsRequest{Advance: []BulkAdvance{{ID: "bulk-advance", Count: 100}}}},
	} {
		throttled(op.name)
		for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
			resp, err := c.BulkSessions(op.req)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Results[0]; got.Status != want || (want == http.StatusTooManyRequests && !strings.Contains(got.Error, "0.5/s")) {
				t.Fatalf("%s call %d: result %+v, want status %d naming the rate 0.5/s", op.name, i+1, got, want)
			}
		}
		if resp, err := c.BulkSessions(BulkSessionsRequest{Stop: []string{op.name}}); err != nil || resp.Failed != 0 {
			t.Fatalf("bulk stop blocked for a throttled tenant: %+v, %v", resp, err)
		}
	}

	// An advance refused for its count pays no token: the next call still
	// finds the one the bucket holds.
	throttled("counted")
	for _, count := range []int{0, 4097} {
		if resp, msg := call(http.MethodPost, fmt.Sprintf("/sessions/counted/advance?count=%d", count), ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("advance count=%d: status %d, want 400 (%s)", count, resp.StatusCode, msg)
		}
	}
	if resp, err := c.BulkSessions(BulkSessionsRequest{Advance: []BulkAdvance{{ID: "counted", Count: 0}}}); err != nil || resp.Results[0].Status != http.StatusBadRequest {
		t.Fatalf("bulk advance count=0: %+v, %v; want a per-op 400", resp, err)
	}
	if resp, msg := call(http.MethodPost, "/sessions/counted/advance?count=100", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance after refused counts: status %d, want 200 (%s)", resp.StatusCode, msg)
	}

	// The unlimited default session is untouched by the other tenants'
	// buckets.
	if _, err := c.Session(DefaultSessionID).Advance(100); err != nil {
		t.Fatalf("default session advance: %v", err)
	}
}

// TestSessionQoSValidation: malformed weight/rate/burst are 400s, and the
// resolved values round-trip through the listing.
func TestSessionQoSValidation(t *testing.T) {
	_, ts := newTestServer(t, 1<<20)
	for _, bad := range []string{
		`{"id":"w1","k":3,"weight":-1}`,
		`{"id":"w2","k":3,"weight":1e9}`,
		`{"id":"w3","k":3,"burst":-2}`,
	} {
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	info := postSpec(t, ts.URL, SessionSpec{ID: "shaped", K: 3, Weight: 4, Rate: 2, Burst: 5})
	if info.Weight != 4 || info.Rate != 2 || info.Burst != 5 {
		t.Fatalf("QoS fields did not round-trip: %+v", info)
	}
	// Defaults: weight 1, no rate.
	info = postSpec(t, ts.URL, SessionSpec{ID: "plain", K: 3})
	if info.Weight != 1 || info.Rate != 0 {
		t.Fatalf("default QoS wrong: %+v", info)
	}
}

// TestWeightedFairness: a weight-4 session receives ~4× the background
// sampling of a weight-1 session over a steady window (±20%), and a
// saturated heavy tenant cannot stall a light tenant's own /advance.
func TestWeightedFairness(t *testing.T) {
	const batch = 500
	srv, ts := newTestServer(t, 1<<26)
	c := NewClient(ts.URL)
	postSpec(t, ts.URL, SessionSpec{ID: "heavy", K: 3, Weight: 4})
	postSpec(t, ts.URL, SessionSpec{ID: "light", K: 3, Weight: 1})

	// Warm-up rotation, then quiesce: measuring deltas between two stopped
	// states keeps the window clean (no torn mid-rotation reads), and
	// starting both sessions in one bulk call keeps the start gap — during
	// which the rotation would serve one tenant alone — to microseconds
	// instead of an HTTP round-trip.
	if resp, err := c.BulkSessions(BulkSessionsRequest{Start: []string{"light", "heavy"}}); err != nil || resp.Failed != 0 {
		t.Fatalf("bulk start: %v (failed=%d)", err, resp.Failed)
	}
	waitLightRR := func(target int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if getJSON[Status](t, ts.URL+"/sessions/light/status").NumRR >= target {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("rotation too slow: light never reached %d RR sets", target)
	}
	waitLightRR(2 * batch)

	// Mid-saturation: the light tenant's own advance must complete in
	// bounded time — it waits at most one Batch chunk of sampler work on
	// its own mutex, never the heavy tenant's full quantum.
	advStart := time.Now()
	postJSON[Status](t, ts.URL+"/sessions/light/advance?count=500")
	advLatency := time.Since(advStart)
	if advLatency > 10*time.Second {
		t.Fatalf("light tenant /advance took %v under heavy load; isolation broken", advLatency)
	}

	srv.Stop()
	h0 := getJSON[Status](t, ts.URL+"/sessions/heavy/status").NumRR
	l0 := getJSON[Status](t, ts.URL+"/sessions/light/status").NumRR

	// The measured window: restart both, run until the light session has
	// earned at least ten more credits, quiesce again.
	if resp, err := c.BulkSessions(BulkSessionsRequest{Start: []string{"light", "heavy"}}); err != nil || resp.Failed != 0 {
		t.Fatalf("bulk restart: %v (failed=%d)", err, resp.Failed)
	}
	waitLightRR(l0 + 10*batch)
	srv.Stop()

	heavy := getJSON[Status](t, ts.URL+"/sessions/heavy/status").NumRR - h0
	light := getJSON[Status](t, ts.URL+"/sessions/light/status").NumRR - l0
	if light < 10*batch {
		t.Fatalf("window too small: light delta %d, want ≥ %d", light, 10*batch)
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("weighted fairness broken: heavy/light deltas %d/%d = %.2f, want 4.0 ± 20%%", heavy, light, ratio)
	}
}

// TestLoopExhaustionRetireUnderLock: the budget-exhaustion retire in
// Server.loop must flip running under sess.mu — hammering /start against
// a session at its RR budget while the sampler keeps retiring it must
// stay race-free (the old unlocked store tripped -race here) and never
// overshoot the budget.
func TestLoopExhaustionRetireUnderLock(t *testing.T) {
	const budget = 1000
	srv, ts := newTestServer(t, 1<<20)
	postSpec(t, ts.URL, SessionSpec{ID: "tiny", K: 3, MaxRR: budget})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := http.Post(ts.URL+"/sessions/tiny/start", "", nil)
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// Every start either re-admitted the session (and the sampler retired
	// it again at the budget) or raced a retire; either way the budget
	// holds and the loop settles with the session out of the rotation.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON[Status](t, ts.URL+"/sessions/tiny/status")
		if st.NumRR > budget {
			t.Fatalf("budget violated: num_rr=%d > max_rr=%d", st.NumRR, budget)
		}
		if st.NumRR == budget && !st.Running {
			srv.Stop()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session never settled at its budget: %+v",
		getJSON[Status](t, ts.URL+"/sessions/tiny/status"))
}

// TestBulkSessions: one POST /sessions/bulk creates, starts, advances and
// stops a fleet, reporting per-op statuses in order.
func TestBulkSessions(t *testing.T) {
	_, ts := newTestServer(t, 1<<20)
	c := NewClient(ts.URL)
	resp, err := c.BulkSessions(BulkSessionsRequest{
		Create: []SessionSpec{
			{ID: "b1", K: 3},
			{ID: "b2", K: 3, Weight: 2},
			{ID: "b1", K: 3}, // duplicate: per-op 409, not a transport error
		},
		Advance: []BulkAdvance{
			{ID: "b1", Count: 200},
			{ID: "b2", Count: 300},
			{ID: "ghost", Count: 100}, // unknown: per-op 404
		},
		Stop: []string{"b1", "b2"},
	})
	if err != nil {
		t.Fatalf("bulk call failed as transport error: %v", err)
	}
	if len(resp.Results) != 8 {
		t.Fatalf("%d results, want 8", len(resp.Results))
	}
	if resp.Failed != 2 {
		t.Fatalf("failed=%d, want 2 (duplicate create + unknown advance)", resp.Failed)
	}
	if r := resp.Results[2]; r.Op != "create" || r.Status != http.StatusConflict {
		t.Fatalf("duplicate create result: %+v", r)
	}
	if r := resp.Results[3]; r.Op != "advance" || r.Status != http.StatusOK || r.NumRR != 200 {
		t.Fatalf("b1 advance result: %+v", r)
	}
	if r := resp.Results[4]; r.NumRR != 300 {
		t.Fatalf("b2 advance result: %+v", r)
	}
	if r := resp.Results[5]; r.Status != http.StatusNotFound {
		t.Fatalf("ghost advance result: %+v", r)
	}
	if r := resp.Results[1]; r.Info == nil || r.Info.Weight != 2 {
		t.Fatalf("b2 create result carries no info: %+v", r)
	}
	// The fleet really exists and really advanced.
	if st := getJSON[Status](t, ts.URL+"/sessions/b2/status"); st.NumRR != 300 {
		t.Fatalf("bulk advance not applied: %+v", st)
	}
	// Malformed requests are transport-level 400s.
	for _, body := range []string{`{}`, `not json`} {
		hresp, herr := http.Post(ts.URL+"/sessions/bulk", "application/json", strings.NewReader(body))
		if herr != nil {
			t.Fatal(herr)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bulk body %q: status %d, want 400", body, hresp.StatusCode)
		}
	}
}

// TestRetryAfterIsFloorNotOverride is the thundering-herd regression: two
// clients that received the same Retry-After hint must pick different
// retry instants, and neither may retry before the hint.
func TestRetryAfterIsFloorNotOverride(t *testing.T) {
	hint := time.Second
	c1 := &Client{RetrySeed: 1}
	c2 := &Client{RetrySeed: 2}
	d1 := c1.backoffDelay(defaultRetryBase, 0, hint)
	d2 := c2.backoffDelay(defaultRetryBase, 0, hint)
	if d1 < hint || d2 < hint {
		t.Fatalf("delay shortened below the server hint: %v / %v < %v", d1, d2, hint)
	}
	if d1 == d2 {
		t.Fatalf("both clients retry at the same instant %v — the stampede the jitter exists to prevent", d1)
	}
	// Without a hint, backoff still doubles per attempt and caps out
	// without shift overflow even at absurd attempt counts.
	if d := c1.backoffDelay(defaultRetryBase, 200, 0); d > maxRetryDelay+maxRetryDelay/2 {
		t.Fatalf("attempt-200 delay %v blew the cap (shift overflow?)", d)
	}
	prev := time.Duration(0)
	for attempt := 0; attempt < 4; attempt++ {
		d := (&Client{RetrySeed: 7}).backoffDelay(defaultRetryBase, attempt, 0)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
		}
		_ = prev
		prev = d
	}
}

// TestClientDrainsBodyForKeepAlive: retries after shed responses must
// reuse the TCP connection — closing an undrained body would force a
// fresh dial per attempt.
func TestClientDrainsBodyForKeepAlive(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// A body large enough that the client's 512-byte error peek
			// leaves bytes behind — the drain has to finish the job. No
			// Retry-After: millisecond backoff keeps the test fast.
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(bytes.Repeat([]byte("shed "), 1024))
			return
		}
		json.NewEncoder(w).Encode(Status{Session: "default", NumRR: 42})
	}))
	defer ts.Close()

	var dials atomic.Int64
	base := &net.Dialer{}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return base.DialContext(ctx, network, addr)
		},
	}
	c := NewClient(ts.URL).Session(DefaultSessionID)
	c.HTTPClient = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	c.RetryBase = time.Millisecond
	c.RetrySeed = 5
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status after two sheds: %v", err)
	}
	if st.NumRR != 42 {
		t.Fatalf("wrong response after retries: %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts reached the server, want 3", got)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d TCP dials for 3 attempts — undrained bodies are killing keep-alive; want 1", got)
	}
}

// TestAdmissionMetricsPresence: the server_admission_* family must exist
// in /metrics so dashboards and the CI check can rely on the names.
func TestAdmissionMetricsPresence(t *testing.T) {
	_, ts := newSlowServer(t, Config{Batch: 500, MaxInflight: 1, MaxQueue: -1})
	// Provoke at least one rejection so the counters are live.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := NewClient(ts.URL).Session(DefaultSessionID)
		c.AdvanceContext(ctx, 1<<20)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/sessions/default/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	snap := obs.Default().Snapshot()
	for _, name := range []string{
		"server_admission_rejected_total",
		"server_admission_queued_total",
		"server_admission_ratelimited_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %s missing from the registry", name)
		}
	}
	for _, name := range []string{
		"server_admission_queue_depth",
		"server_admission_service_ewma_seconds",
		"server_admission_retry_after_seconds",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s missing from the registry", name)
		}
	}
	if snap.Counters["server_admission_rejected_total"] == 0 {
		t.Fatal("no admission rejection was recorded by the provoked overload")
	}
}
