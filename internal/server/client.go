package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/obs"
)

// Client retry defaults; see the retry policy on Client.
const (
	defaultClientTimeout = 30 * time.Second
	defaultMaxRetries    = 3
	defaultRetryBase     = 100 * time.Millisecond
	maxRetryDelay        = 5 * time.Second
)

// defaultHTTPClient bounds every request end to end — http.DefaultClient
// has no timeout, so one hung server would hang the caller forever.
var defaultHTTPClient = &http.Client{Timeout: defaultClientTimeout}

// Client is a typed client for the opimd HTTP API, so Go programs can
// drive a remote OPIM session the way a database client drives an online
// aggregation query. SessionID scopes the session endpoints to one named
// session; Session derives a scoped client (Session(DefaultSessionID) for
// the session opimd's flags configure), and CreateSession/ListSessions/
// DeleteSession manage the session population. A client without a
// SessionID sends no session-scoped request: those methods return an
// error instead.
//
// Every method has a context-taking variant (StatusContext etc.); the
// plain forms use context.Background(). Requests are built with
// http.NewRequestWithContext and sent through an http.Client with a 30s
// default timeout.
//
// Retry policy: failures are retried with exponential backoff + jitter,
// bounded by MaxRetries, but only when a retry cannot change the
// session's semantics:
//
//   - 503 (the server's deadline responses), 429 (admission-queue and
//     token-bucket rejections) and 409 (a concurrent mutation batch, a
//     learning round's realization included) are retried for idempotent
//     requests only — Status, Metrics, Start, Stop, PeekSnapshot,
//     ListSessions, StartRound, Observe for a round > 0, ListGraphs and
//     GetGraph;
//   - transport errors (connection refused/reset, timeouts) likewise are
//     retried for idempotent requests only;
//   - Advance and Snapshot are never auto-retried: a lost response may
//     mean the server already did the work (generated RR sets, spent δ
//     budget), so blind replay would double-spend — exactly the silent
//     budget corruption the resume guarantees exist to prevent;
//   - any other non-200 status is a semantic failure and never retried.
//
// A 503 or 429 carries a Retry-After header, a floor on the backoff
// delay, never the delay itself: the client waits the hint plus its own
// jitter (see backoffDelay). Every shed client received the same
// whole-second hint — retrying exactly then would re-synchronize the
// herd the server just spread out. A 409 carries none: the batch it met
// lasts milliseconds, so the retry waits the RetryBase backoff alone.
// Jitter comes from a per-client source seeded by RetrySeed, so retry
// timing is reproducible in tests and never contends on (or is perturbed
// by) the global math/rand state.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// SessionID scopes the session endpoints: "alice" targets
	// /sessions/alice/status etc. Empty, the session-scoped methods fail.
	SessionID string
	// HTTPClient defaults to a shared client with a 30s timeout. Set an
	// explicit client to change the timeout or transport.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try for retryable
	// failures (0 means the default of 3; negative disables retries).
	MaxRetries int
	// RetryBase is the first backoff delay, doubled per attempt with up to
	// 50% added jitter (0 means the default of 100ms).
	RetryBase time.Duration
	// RetrySeed seeds the client's private jitter source; a fixed seed
	// makes retry timing reproducible. 0 picks a distinct seed per client.
	RetrySeed int64

	jmu    sync.Mutex
	jitter *rand.Rand
}

// clientSeq distinguishes the jitter streams of RetrySeed-less clients.
var clientSeq atomic.Int64

// NewClient returns a Client for the given base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// Session returns a client scoped to the named session, sharing this
// client's connection and retry configuration (but not its jitter state —
// each derived client gets its own stream).
func (c *Client) Session(id string) *Client {
	return &Client{
		BaseURL:    c.BaseURL,
		SessionID:  id,
		HTTPClient: c.HTTPClient,
		MaxRetries: c.MaxRetries,
		RetryBase:  c.RetryBase,
		RetrySeed:  c.RetrySeed,
	}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) retries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return defaultMaxRetries
	}
	return c.MaxRetries
}

// jitterN draws from the client's private jitter source, created on first
// use from RetrySeed.
func (c *Client) jitterN(n int64) int64 {
	if n <= 0 {
		return 0
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if c.jitter == nil {
		seed := c.RetrySeed
		if seed == 0 {
			seed = time.Now().UnixNano() + clientSeq.Add(1)
		}
		c.jitter = rand.New(rand.NewSource(seed))
	}
	return c.jitter.Int63n(n)
}

// errNoSession is what the session-scoped methods of a Client without a
// SessionID return.
var errNoSession = errors.New("opimd: client has no SessionID; scope it with Session(id), e.g. Session(DefaultSessionID)")

// doSession is do against the client's session route, /sessions/{id}p.
func (c *Client) doSession(ctx context.Context, method, p string, body, out any, idempotent bool) error {
	if c.SessionID == "" {
		return errNoSession
	}
	return c.do(ctx, method, "/sessions/"+url.PathEscape(c.SessionID)+p, body, out, idempotent)
}

// do performs one logical request with the retry policy above. idempotent
// marks requests whose replay cannot change session semantics. A non-nil
// body is marshaled to JSON once and re-sent on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	base := c.RetryBase
	if base <= 0 {
		base = defaultRetryBase
	}
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err, retryable, retryAfter := c.once(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || !idempotent || attempt >= c.retries() {
			return lastErr
		}
		select {
		case <-time.After(c.backoffDelay(base, attempt, retryAfter)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// backoffDelay computes the wait before retry number attempt (0-based):
// exponential backoff from base with up to 50% added jitter, capped at
// maxRetryDelay. A server Retry-After hint raises the delay to at least
// the hint — with the jitter still added on top, never replacing it.
// The hint is when capacity is *expected* back, and the server hands the
// same whole-second value to every client it sheds in that window;
// treating it as the exact retry instant would reassemble the thundering
// herd at hint expiry, which is precisely what per-client jitter exists
// to prevent.
func (c *Client) backoffDelay(base time.Duration, attempt int, retryAfter time.Duration) time.Duration {
	delay := base
	// Doubling per attempt, without shift overflow for large MaxRetries:
	// stop doubling once past the cap.
	for i := 0; i < attempt && delay < maxRetryDelay; i++ {
		delay *= 2
	}
	if delay > maxRetryDelay {
		delay = maxRetryDelay
	}
	jitter := time.Duration(c.jitterN(int64(delay)/2 + 1))
	if retryAfter > 0 && delay < retryAfter {
		delay = retryAfter
	}
	return delay + jitter
}

// once performs a single HTTP exchange. retryable reports whether the
// failure class permits replaying an idempotent request; retryAfter is
// the server's Retry-After hint (0 when absent).
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) (err error, retryable bool, retryAfter time.Duration) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err, false, 0
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		// Transport error: the request may or may not have reached the
		// server, which is precisely why only idempotent requests retry.
		return err, true, 0
	}
	// Drain whatever the handler below leaves unread before closing: a
	// Body closed with bytes still buffered poisons the underlying TCP
	// connection for keep-alive reuse, so every retry would pay a fresh
	// dial + handshake — and a retrying client is exactly the one that
	// needs its warm connection. The drain is bounded; a response large
	// enough to blow the bound is cheaper to abandon than to slurp.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10)) //nolint:errcheck // best-effort drain
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("opimd: %s %s: %s: %s", method, path, resp.Status, body)
		// 503: advance deadline. 429: admission queue or per-session token
		// bucket. 409: a concurrent batch on the graph, over once it
		// finishes. In each case an idempotent retry wins, after the
		// server's honest Retry-After (503, 429; plus jitter) or, with no
		// hint (409), after the backoff alone.
		switch resp.StatusCode {
		case http.StatusServiceUnavailable, http.StatusTooManyRequests, http.StatusConflict:
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			return err, true, retryAfter
		}
		return err, false, 0
	}
	if out == nil {
		return nil, false, 0
	}
	return json.NewDecoder(resp.Body).Decode(out), false, 0
}

// Status fetches the session counters.
func (c *Client) Status() (Status, error) { return c.StatusContext(context.Background()) }

// StatusContext is Status bounded by ctx.
func (c *Client) StatusContext(ctx context.Context) (Status, error) {
	var s Status
	err := c.doSession(ctx, http.MethodGet, "/status", nil, &s, true)
	return s, err
}

// Snapshot fetches the current seed set and guarantee. Each call spends
// failure budget on the server exactly like a local Snapshot — which is
// why it is never auto-retried.
func (c *Client) Snapshot() (SnapshotResponse, error) { return c.SnapshotContext(context.Background()) }

// SnapshotContext is Snapshot bounded by ctx.
func (c *Client) SnapshotContext(ctx context.Context) (SnapshotResponse, error) {
	var s SnapshotResponse
	err := c.doSession(ctx, http.MethodGet, "/snapshot", nil, &s, false)
	return s, err
}

// PeekSnapshot fetches the last derived snapshot without spending any δ
// budget (and without blocking on the session): the server's
// snapshot?peek=1 path. 404 until the first real Snapshot. Idempotent —
// safe to poll and to retry.
func (c *Client) PeekSnapshot() (SnapshotResponse, error) {
	return c.PeekSnapshotContext(context.Background())
}

// PeekSnapshotContext is PeekSnapshot bounded by ctx.
func (c *Client) PeekSnapshotContext(ctx context.Context) (SnapshotResponse, error) {
	var s SnapshotResponse
	err := c.doSession(ctx, http.MethodGet, "/snapshot?peek=1", nil, &s, true)
	return s, err
}

// Metrics fetches the server's metrics registry: RR-generation
// throughput, per-endpoint request counters/latencies, and the latest
// snapshot's (θ, σˡ, σᵘ, α) gauges. Costs no δ budget.
func (c *Client) Metrics() (obs.Snapshot, error) { return c.MetricsContext(context.Background()) }

// MetricsContext is Metrics bounded by ctx.
func (c *Client) MetricsContext(ctx context.Context) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &s, true)
	return s, err
}

// Advance generates count RR sets synchronously. Counts above the
// session's RR budget (Status.MaxRR) are rejected with 400. Never
// auto-retried: a replay after an ambiguous failure would generate count
// additional RR sets on top of whatever the lost request produced.
func (c *Client) Advance(count int) (Status, error) {
	return c.AdvanceContext(context.Background(), count)
}

// AdvanceContext is Advance bounded by ctx: cancelling it aborts the
// server-side generation at the next chunk boundary (progress is kept on
// the server; poll Status).
func (c *Client) AdvanceContext(ctx context.Context, count int) (Status, error) {
	var s Status
	err := c.doSession(ctx, http.MethodPost, "/advance?count="+url.QueryEscape(fmt.Sprint(count)), nil, &s, false)
	return s, err
}

// Start adds the session to the server's background sampling rotation.
func (c *Client) Start() (Status, error) { return c.StartContext(context.Background()) }

// StartContext is Start bounded by ctx.
func (c *Client) StartContext(ctx context.Context) (Status, error) {
	var s Status
	err := c.doSession(ctx, http.MethodPost, "/start", nil, &s, true)
	return s, err
}

// Stop removes the session from the background sampling rotation.
func (c *Client) Stop() (Status, error) { return c.StopContext(context.Background()) }

// StopContext is Stop bounded by ctx.
func (c *Client) StopContext(ctx context.Context) (Status, error) {
	var s Status
	err := c.doSession(ctx, http.MethodPost, "/stop", nil, &s, true)
	return s, err
}

// Checkpoint forces the server to write the session's checkpoint now and
// reports the file and size. Idempotent in effect (a replayed checkpoint
// rewrites the same state) but cheap to leave unretried; callers needing
// durability should check the error and re-issue deliberately.
func (c *Client) Checkpoint() (CheckpointResponse, error) {
	return c.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint bounded by ctx.
func (c *Client) CheckpointContext(ctx context.Context) (CheckpointResponse, error) {
	var r CheckpointResponse
	err := c.doSession(ctx, http.MethodPost, "/checkpoint", nil, &r, false)
	return r, err
}

// StartRound starts the next explore/exploit round of a learning session
// and returns its seed set (POST /rounds). Safe to auto-retry: the
// server's round protocol replays an outstanding round's stored seeds
// instead of starting a new one, so a retried request can never skip or
// double-advance a round.
func (c *Client) StartRound() (RoundResponse, error) {
	return c.StartRoundContext(context.Background())
}

// StartRoundContext is StartRound bounded by ctx.
func (c *Client) StartRoundContext(ctx context.Context) (RoundResponse, error) {
	var r RoundResponse
	err := c.doSession(ctx, http.MethodPost, "/rounds", nil, &r, true)
	return r, err
}

// Observe submits a cascade's activation attempts against the given
// round (POST /observations). Round-bound observations (round > 0) are
// auto-retried: the server acknowledges an already-applied round as a
// duplicate without re-counting it. Free-form observations (round 0)
// always apply, so an ambiguous replay would double-count — those are
// never auto-retried; re-issue deliberately.
func (c *Client) Observe(round int64, attempts []learn.Attempt) (ObservationResponse, error) {
	return c.ObserveContext(context.Background(), round, attempts)
}

// ObserveContext is Observe bounded by ctx.
func (c *Client) ObserveContext(ctx context.Context, round int64, attempts []learn.Attempt) (ObservationResponse, error) {
	var r ObservationResponse
	req := ObservationRequest{Round: round, Attempts: attempts}
	err := c.doSession(ctx, http.MethodPost, "/observations", req, &r, round > 0)
	return r, err
}

// CreateSession creates a named session (POST /sessions). Never
// auto-retried: a replay after an ambiguous failure would 409 on the
// just-created name, turning success into an error.
func (c *Client) CreateSession(spec SessionSpec) (SessionInfo, error) {
	return c.CreateSessionContext(context.Background(), spec)
}

// CreateSessionContext is CreateSession bounded by ctx.
func (c *Client) CreateSessionContext(ctx context.Context, spec SessionSpec) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodPost, "/sessions", spec, &info, false)
	return info, err
}

// ListSessions lists every session on the server, sorted by id.
func (c *Client) ListSessions() ([]SessionInfo, error) {
	return c.ListSessionsContext(context.Background())
}

// ListSessionsContext is ListSessions bounded by ctx.
func (c *Client) ListSessionsContext(ctx context.Context) ([]SessionInfo, error) {
	var resp SessionListResponse
	err := c.do(ctx, http.MethodGet, "/sessions", nil, &resp, true)
	return resp.Sessions, err
}

// DeleteSession deletes the named session and its checkpoints. Not
// auto-retried: a replayed delete 404s on the now-gone name.
func (c *Client) DeleteSession(id string) error {
	return c.DeleteSessionContext(context.Background(), id)
}

// DeleteSessionContext is DeleteSession bounded by ctx.
func (c *Client) DeleteSessionContext(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/sessions/"+url.PathEscape(id), nil, nil, false)
}

// BulkSessions executes many session operations in one round-trip (POST
// /sessions/bulk): create, start, advance and stop batches, answered with
// one per-operation result each. Never auto-retried — the advance (and
// create) phases are not idempotent, exactly like their per-session
// counterparts; callers inspect the per-op statuses and re-issue only the
// operations that failed retryably.
func (c *Client) BulkSessions(req BulkSessionsRequest) (BulkSessionsResponse, error) {
	return c.BulkSessionsContext(context.Background(), req)
}

// BulkSessionsContext is BulkSessions bounded by ctx. Size the ctx (and
// the HTTPClient timeout) to the advance batch, not to the default 30s.
func (c *Client) BulkSessionsContext(ctx context.Context, req BulkSessionsRequest) (BulkSessionsResponse, error) {
	var resp BulkSessionsResponse
	err := c.do(ctx, http.MethodPost, "/sessions/bulk", req, &resp, false)
	return resp, err
}

// CreateGraph registers a named graph in the server's catalog (POST
// /graphs) so sessions can be created against it by name. Never
// auto-retried: a replay after an ambiguous failure would 409 on the
// just-registered name.
func (c *Client) CreateGraph(req CreateGraphRequest) (GraphInfo, error) {
	return c.CreateGraphContext(context.Background(), req)
}

// CreateGraphContext is CreateGraph bounded by ctx. Registering a graph
// loads it synchronously; size the ctx (and the HTTPClient timeout) to
// the graph, not to the default 30s.
func (c *Client) CreateGraphContext(ctx context.Context, req CreateGraphRequest) (GraphInfo, error) {
	var info GraphInfo
	err := c.do(ctx, http.MethodPost, "/graphs", req, &info, false)
	return info, err
}

// ListGraphs lists every registered graph, sorted by name.
func (c *Client) ListGraphs() ([]GraphInfo, error) {
	return c.ListGraphsContext(context.Background())
}

// ListGraphsContext is ListGraphs bounded by ctx.
func (c *Client) ListGraphsContext(ctx context.Context) ([]GraphInfo, error) {
	var resp GraphListResponse
	err := c.do(ctx, http.MethodGet, "/graphs", nil, &resp, true)
	return resp.Graphs, err
}

// GetGraph fetches one graph's catalog entry, including its fingerprint
// and live session count. Idempotent — safe to poll and to retry.
func (c *Client) GetGraph(name string) (GraphInfo, error) {
	return c.GetGraphContext(context.Background(), name)
}

// GetGraphContext is GetGraph bounded by ctx.
func (c *Client) GetGraphContext(ctx context.Context, name string) (GraphInfo, error) {
	var info GraphInfo
	err := c.do(ctx, http.MethodGet, "/graphs/"+url.PathEscape(name), nil, &info, true)
	return info, err
}

// DeleteGraph removes a graph from the catalog. The server answers 409
// while any session still references the graph — that conflict means
// "delete the sessions first", not "retry", so no auto-retry despite the
// general 409 policy.
func (c *Client) DeleteGraph(name string) error {
	return c.DeleteGraphContext(context.Background(), name)
}

// DeleteGraphContext is DeleteGraph bounded by ctx.
func (c *Client) DeleteGraphContext(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/graphs/"+url.PathEscape(name), nil, nil, false)
}

// UpdateGraph applies one mutation batch to a catalog graph (POST
// /graphs/{name}/updates), advancing its epoch and incrementally
// repairing every loaded session on it. Never auto-retried: a replay
// would apply the batch twice, and a timeout leaves the outcome unknown —
// poll GetGraph's epoch to disambiguate before resending.
func (c *Client) UpdateGraph(name string, updates []GraphUpdate) (UpdateGraphResponse, error) {
	return c.UpdateGraphContext(context.Background(), name, updates)
}

// UpdateGraphContext is UpdateGraph bounded by ctx.
func (c *Client) UpdateGraphContext(ctx context.Context, name string, updates []GraphUpdate) (UpdateGraphResponse, error) {
	var resp UpdateGraphResponse
	err := c.do(ctx, http.MethodPost, "/graphs/"+url.PathEscape(name)+"/updates",
		UpdateGraphRequest{Updates: updates}, &resp, false)
	return resp, err
}
