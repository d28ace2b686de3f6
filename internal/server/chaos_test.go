package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/faultinject"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/trigger"
)

// newSlowServer builds a server whose RR generation is deliberately slow
// (a faultinject.SlowDist around the real IC triggering model), so that
// deadline and cancellation paths are actually exercised mid-advance.
func newSlowServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sampler := robustSampler(t)
	slow := rrset.NewSamplerTriggering(sampler.Graph(),
		&faultinject.SlowDist{Dist: trigger.NewIC(sampler.Graph()), Delay: 200 * time.Microsecond})
	session, err := core.NewOnline(slow, core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(session, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Stop()
		ts.Close()
	})
	return srv, ts
}

// TestChaosAdvanceClientCancel: a client that walks away mid-/advance
// must get control back promptly, and the server must stop generating at
// the next chunk boundary instead of burning the session mutex for the
// full requested count.
func TestChaosAdvanceClientCancel(t *testing.T) {
	_, ts := newSlowServer(t, Config{Batch: 500})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.AdvanceContext(ctx, 1<<20)
	if err == nil {
		t.Fatal("cancelled advance returned no error")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancelled advance returned after %v", el)
	}

	// The server noticed: generation freezes at the aborted point.
	time.Sleep(500 * time.Millisecond)
	a := getJSON[Status](t, ts.URL+"/sessions/default/status")
	time.Sleep(300 * time.Millisecond)
	b := getJSON[Status](t, ts.URL+"/sessions/default/status")
	if a.NumRR != b.NumRR {
		t.Fatalf("server kept generating after client cancel: %d → %d", a.NumRR, b.NumRR)
	}
	if a.NumRR <= 0 || a.NumRR >= 1<<20 {
		t.Fatalf("cancelled advance left num_rr=%d; want partial progress kept", a.NumRR)
	}
}

// TestChaosAdvanceDeadline503: the -request-timeout deadline turns an
// over-long advance into a prompt 503 with Retry-After, keeping partial
// progress. A learning round past its deadline answers the same and rolls
// its campaign back, and one deadline covers a bulk advance phase.
func TestChaosAdvanceDeadline503(t *testing.T) {
	before := obs.Default().Snapshot()
	_, ts := newSlowServer(t, Config{Batch: 500, RequestTimeout: 150 * time.Millisecond})

	start := time.Now()
	resp, err := http.Post(ts.URL+"/sessions/default/advance?count=1048576", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline advance returned after %v", el)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if !strings.Contains(string(body[:n]), "progress kept") {
		t.Fatalf("503 body %q does not explain that progress is kept", body[:n])
	}
	if st := getJSON[Status](t, ts.URL+"/sessions/default/status"); st.NumRR <= 0 {
		t.Fatal("partial progress was discarded")
	}
	after := obs.Default().Snapshot()
	if d := after.Counters["server_advance_deadline_total"] - before.Counters["server_advance_deadline_total"]; d != 1 {
		t.Fatalf("server_advance_deadline_total advanced by %d, want 1", d)
	}

	const timeout = 150 * time.Millisecond
	t.Run("round", func(t *testing.T) {
		srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, RequestTimeout: timeout})
		c := NewClient(ts.URL).Session("learner")
		if _, err := c.CreateSession(SessionSpec{ID: "learner", K: 3, Learn: &LearnSpec{Seed: 2, RoundRR: 256}}); err != nil {
			t.Fatal(err)
		}
		// The realization's repair sweep must lock the default session; hold
		// it until the round's deadline has passed, so the round's
		// generation starts past its deadline.
		def := srv.lookup(DefaultSessionID)
		def.mu.Lock()
		go func() {
			for srv.lookupGraph(DefaultGraphName).ident.Load().epoch == 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(2 * timeout)
			def.mu.Unlock()
		}()
		resp, err := http.Post(ts.URL+"/sessions/learner/rounds", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("round past its deadline: status %d, Retry-After %q (%s); want 503 with a hint",
				resp.StatusCode, resp.Header.Get("Retry-After"), body[:n])
		}
		// The campaign was rolled back: the retry serves the same round, on
		// the realization the graph already carries.
		r, err := c.StartRound()
		if err != nil {
			t.Fatal(err)
		}
		if r.Round != 1 || r.Applied != 0 || r.Replay {
			t.Fatalf("retried round: %+v, want round 1 with applied 0", r)
		}
	})

	t.Run("bulk", func(t *testing.T) {
		srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, RequestTimeout: timeout})
		c := NewClient(ts.URL)
		var adv []BulkAdvance
		for i := 0; i <= bulkAdvanceWorkers; i++ {
			id := fmt.Sprintf("b%d", i)
			if _, err := c.CreateSession(SessionSpec{ID: id, K: 3}); err != nil {
				t.Fatal(err)
			}
			adv = append(adv, BulkAdvance{ID: id, Count: 100})
		}
		// Hold the first bulkAdvanceWorkers entries' sessions past the
		// deadline: every worker waits on one, so the last entry starts only
		// after the deadline.
		srv.smu.Lock()
		touched := srv.touchSeq
		srv.smu.Unlock()
		held := make([]*Session, bulkAdvanceWorkers)
		for i := range held {
			held[i] = srv.lookup(adv[i].ID)
			held[i].mu.Lock()
		}
		go func() {
			for { // each worker touches its session before it locks it
				srv.smu.Lock()
				waiting := srv.touchSeq - touched
				srv.smu.Unlock()
				if waiting >= bulkAdvanceWorkers {
					break
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(2 * timeout)
			for _, sess := range held {
				sess.mu.Unlock()
			}
		}()
		resp, err := c.BulkSessions(BulkSessionsRequest{Advance: adv})
		if err != nil {
			t.Fatal(err)
		}
		last := resp.Results[len(resp.Results)-1]
		if last.Status != http.StatusServiceUnavailable || !strings.Contains(last.Error, "deadline exceeded") {
			t.Fatalf("entry starting past the phase deadline: %+v, want 503", last)
		}
	})
}

// TestChaosInflightCap: with MaxInflight=1 and the admission queue
// disabled, a long advance in flight sheds every other request with 429 +
// Retry-After; capacity returns once the advance finishes.
func TestChaosInflightCap(t *testing.T) {
	_, ts := newSlowServer(t, Config{Batch: 500, MaxInflight: 1, MaxQueue: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		c := NewClient(ts.URL).Session(DefaultSessionID)
		// A /status probe below may hold the only slot when the advance
		// arrives, shedding the advance instead; resend it until it runs.
		for ctx.Err() == nil {
			_, err := c.AdvanceContext(ctx, 1<<20)
			if err == nil || !strings.Contains(err.Error(), "429") {
				return
			}
		}
	}()

	// While the advance occupies the only slot, /status must be shed.
	deadline := time.Now().Add(5 * time.Second)
	var got429 bool
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/sessions/default/status")
		if err != nil {
			t.Fatal(err)
		}
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if retryAfter == "" {
				t.Fatal("shed response missing Retry-After")
			}
			got429 = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !got429 {
		t.Fatal("inflight cap never shed a request while an advance was in flight")
	}

	cancel()
	<-advDone
	// Capacity comes back.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/sessions/default/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never recovered capacity after the advance was cancelled")
}

// TestClientRetriesAfterInflight503: idempotent client calls retry shed
// requests with backoff instead of surfacing the 503.
func TestClientRetriesAfterInflight503(t *testing.T) {
	var mu sync.Mutex
	rejections := 0
	inner, ts := newSlowServer(t, Config{Batch: 500})
	_ = inner
	// A front handler that sheds the first two requests like the old hard
	// limiter would, then proxies — deterministic 503-then-success. No
	// Retry-After hint: this pins the pure-backoff retry path (the
	// hint-floor path is pinned by TestRetryAfterIsFloorNotOverride).
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rejections++
		shed := rejections <= 2
		mu.Unlock()
		if shed {
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			return
		}
		resp, err := http.Get(ts.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer front.Close()

	c := NewClient(front.URL).Session(DefaultSessionID)
	c.RetryBase = 5 * time.Millisecond
	if _, err := c.Status(); err != nil {
		t.Fatalf("status with retries: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if rejections != 3 {
		t.Fatalf("%d attempts reached the front, want 3 (two shed + one served)", rejections)
	}
}

// TestClientNeverRetriesSemanticFailures: a 400 must surface immediately,
// not be replayed.
func TestClientNeverRetriesSemanticFailures(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "count must be a positive integer", http.StatusBadRequest)
	}))
	defer ts.Close()
	c := NewClient(ts.URL).Session(DefaultSessionID)
	c.RetryBase = time.Millisecond
	if _, err := c.Status(); err == nil {
		t.Fatal("400 surfaced as success")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("semantic failure retried: %d calls", calls)
	}
}

// TestClientNeverRetriesAdvanceOnTransportError: /advance is not
// idempotent — an ambiguous connection error must surface, not replay.
func TestClientNeverRetriesAdvanceOnTransportError(t *testing.T) {
	c := NewClient("http://127.0.0.1:1").Session(DefaultSessionID)
	c.RetryBase = time.Millisecond
	start := time.Now()
	if _, err := c.Advance(100); err == nil {
		t.Fatal("unreachable server accepted")
	}
	// No backoff cycles: a single failed attempt returns immediately.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("non-idempotent call spent %v, suggesting retries", el)
	}
}

// TestStopAlwaysWaitsForLoopExit is the regression test for the
// Stop-vs-budget-exhaustion race: when the loop self-terminates, a
// concurrent Stop used to return before the loop goroutine exited.
func TestStopAlwaysWaitsForLoopExit(t *testing.T) {
	srv, ts := newTestServer(t, 600)
	// Exhaust the budget so every restarted loop self-terminates on its
	// first iteration — the exact window of the race.
	postJSON[Status](t, ts.URL+"/sessions/default/advance?count=600")
	for i := 0; i < 200; i++ {
		postJSON[Status](t, ts.URL+"/sessions/default/start")
		srv.sampler.mu.Lock()
		done := srv.sampler.done
		srv.sampler.mu.Unlock()
		srv.Stop()
		select {
		case <-done:
		default:
			t.Fatalf("iteration %d: Stop returned before the loop exited", i)
		}
	}
}

// TestRecovererTurnsPanicInto500: the panic-recovery middleware contains
// a handler panic, counts it, and records the stack in the event sink.
func TestRecovererTurnsPanicInto500(t *testing.T) {
	sink := &obs.MemorySink{}
	srv := New(robustSession(t, robustSampler(t)), Config{Events: sink})
	h := srv.recoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	before := obs.Default().Snapshot()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic status %d, want 500", rec.Code)
	}
	after := obs.Default().Snapshot()
	if d := after.Counters["server_panics_total"] - before.Counters["server_panics_total"]; d != 1 {
		t.Fatalf("server_panics_total advanced by %d, want 1", d)
	}
	events := sink.Events()
	if len(events) != 1 || events[0].Event != "server_panic" {
		t.Fatalf("events = %+v", events)
	}
	if stack, _ := events[0].Fields["stack"].(string); !strings.Contains(stack, "ServeHTTP") {
		t.Fatalf("panic event carries no stack: %q", stack)
	}
	// And the full handler chain keeps serving after a panic.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if st := getJSON[Status](t, ts.URL+"/sessions/default/status"); st.NumRR != 0 {
		t.Fatalf("status after recovered panic: %+v", st)
	}
}

// TestWriteJSONEncodeErrorCounted: an encode failure after the header is
// out cannot be turned into an http.Error (that would be a silent no-op);
// it must be counted instead.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	before := obs.Default().Snapshot()
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN()) // json: unsupported value
	after := obs.Default().Snapshot()
	if d := after.Counters["server_encode_errors_total"] - before.Counters["server_encode_errors_total"]; d != 1 {
		t.Fatalf("server_encode_errors_total advanced by %d, want 1", d)
	}
	if rec.Code == http.StatusInternalServerError {
		t.Fatal("writeJSON attempted http.Error after a partial body")
	}
}

// TestStressConcurrentRequests hammers every endpoint from many
// goroutines under -race: counters must stay consistent, the budget must
// hold, and no request may hang past its deadline.
func TestStressConcurrentRequests(t *testing.T) {
	const maxRR = 200000
	srv, ts := newTestServer(t, maxRR)
	before := obs.Default().Snapshot()

	const goroutines = 8
	const iters = 25
	var statusCalls atomic64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	client := &http.Client{Timeout: 10 * time.Second}
	for gID := 0; gID < goroutines; gID++ {
		wg.Add(1)
		go func(gID int) {
			defer wg.Done()
			paths := []string{"/sessions/default/status", "/sessions/default/advance?count=200", "/sessions/default/snapshot", "/sessions/default/start", "/metrics", "/sessions/default/stop"}
			for i := 0; i < iters; i++ {
				p := paths[(gID+i)%len(paths)]
				method := http.MethodGet
				if strings.HasPrefix(p, "/sessions/default/advance") || p == "/sessions/default/start" || p == "/sessions/default/stop" {
					method = http.MethodPost
				}
				req, _ := http.NewRequest(method, ts.URL+p, nil)
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if el := time.Since(start); el > 15*time.Second {
					errs <- errors.New("request exceeded its deadline: " + p)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable &&
					resp.StatusCode != http.StatusTooManyRequests {
					errs <- errors.New(p + ": unexpected status " + resp.Status)
					return
				}
				if p == "/sessions/default/status" && resp.StatusCode == http.StatusOK {
					statusCalls.add(1)
				}
			}
		}(gID)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Stop()

	st := getJSON[Status](t, ts.URL+"/sessions/default/status")
	if st.NumRR < 0 || st.NumRR > maxRR {
		t.Fatalf("budget violated: num_rr=%d, max_rr=%d", st.NumRR, maxRR)
	}
	after := obs.Default().Snapshot()
	if d := after.Counters["server_status_requests_total"] - before.Counters["server_status_requests_total"]; d < statusCalls.load() {
		t.Fatalf("status counter advanced by %d, but %d OK requests were served", d, statusCalls.load())
	}
}

// atomic64 avoids importing sync/atomic's int64 alignment caveats into
// the test body.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(n int64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
