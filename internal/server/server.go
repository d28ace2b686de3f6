// Package server exposes OPIM sessions over HTTP — the paper's
// online-query-processing paradigm as a long-running, multi-tenant
// service. A background sampler streams RR sets across every running
// session in deficit-weighted round-robin order (a session's share of
// sampling follows its configured weight); clients poll each session's
// current seed set and guarantee and stop its refinement when satisfied,
// exactly as a database user monitors an online aggregation query.
//
// Endpoints (all JSON; docs/API.md has schemas and curl examples):
//
//	GET    /graphs                      list the graph catalog
//	POST   /graphs                      register a named graph (body: CreateGraphRequest)
//	GET    /graphs/{name}               describe one graph
//	DELETE /graphs/{name}               unregister a graph (409 while referenced)
//	GET    /sessions                    list sessions
//	POST   /sessions                    create a session (body: SessionSpec; "graph" picks its catalog graph)
//	POST   /sessions/bulk               create/start/advance/stop many sessions in one call (body: BulkSessionsRequest)
//	GET    /sessions/{id}               describe one session
//	DELETE /sessions/{id}               delete a session and its checkpoints
//	GET    /sessions/{id}/status        session counters (never blocks)
//	GET    /sessions/{id}/snapshot      derive (seed set, α); spends δ budget
//	GET    /sessions/{id}/snapshot?peek=1  last derived snapshot; spends none
//	POST   /sessions/{id}/advance?count=N  generate N more RR sets
//	POST   /sessions/{id}/start         join background sampling
//	POST   /sessions/{id}/stop          leave background sampling
//	POST   /sessions/{id}/checkpoint    force a checkpoint write now
//	POST   /sessions/{id}/rounds        start a learning round
//	POST   /sessions/{id}/observations  feed a learning round's cascades back
//	GET    /metrics                     process metrics (?format=text)
//
// The session named "default" is the one New registers from opimd's
// flags; it is addressed, checkpointed, resumed and deleted like any other.
//
// Concurrency: each session owns its own mutex, δ budget and scratch, so
// a slow snapshot or advance on one session never blocks another — and
// /status and GET /sessions read lock-free cached counters, so they stay
// responsive even against a session mid-advance. Residency is bounded via
// Config.MaxLoadedSessions: the least-recently-used idle session is
// checkpointed and unloaded, then transparently reloaded on next touch
// (see sessions.go). A session request only ever waits for the session's
// own lock — never for an eviction or a mutation batch to finish — and a
// 409 only reports a real conflict (a taken name, a referenced graph, a
// second concurrent batch on a graph, a learning round's realization
// included).
//
// The request path is hardened for long-lived deployments: a
// panic-recovery middleware turns handler panics into 500s (counted in
// server_panics_total, stack to the event log), a bounded admission queue
// above the inflight cap rejects unserviceable requests with 429 + an
// honest Retry-After derived from queue depth and measured service time
// (qos.go), per-session token buckets rate-limit engine-touching requests
// per tenant, and /advance threads its request context into chunked RR
// generation so client disconnects and the configured request deadline
// actually stop the work (partial progress is kept — cancelling loses no
// RR sets).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/obs"
)

// Robustness metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	mPanics          = obs.Default().Counter("server_panics_total")
	mEncodeErrors    = obs.Default().Counter("server_encode_errors_total")
	mAdvanceDeadline = obs.Default().Counter("server_advance_deadline_total")
)

// Config configures a Server.
type Config struct {
	// Batch is the RR-set count a weight-1 session is credited per
	// background-sampler visit (≤ 0 defaults to 10 000) — the fairness
	// quantum of the deficit-weighted rotation, and the largest chunk the
	// sampler holds any session's mutex for.
	Batch int
	// MaxRR caps each session's size; the background sampler drops a
	// session from its rotation there (≤ 0 defaults to 2²⁶). Sessions may
	// choose a smaller budget at creation (SessionSpec.MaxRR).
	MaxRR int64
	// RequestTimeout bounds each token-charged engine request (one
	// deadline per bulk advance phase); an advance past it — /advance, bulk
	// or a learning round's generation — returns 503 with progress kept. 0
	// means no deadline.
	RequestTimeout time.Duration
	// MaxInflight caps concurrently served HTTP requests; excess requests
	// enter the bounded admission queue (MaxQueue/MaxQueueWait) and are
	// rejected with 429 + an honest Retry-After when the queue cannot
	// plausibly serve them. ≤ 0 means unlimited.
	MaxInflight int
	// MaxQueue bounds how many over-capacity requests may wait for an
	// inflight slot (0 defaults to 2 × MaxInflight; < 0 disables queueing —
	// over-capacity requests are rejected immediately).
	MaxQueue int
	// MaxQueueWait bounds how long a queued request waits before a 429
	// (≤ 0 defaults to 500ms). Requests whose estimated wait — queue depth
	// times measured service time — already exceeds it are rejected without
	// queueing at all.
	MaxQueueWait time.Duration
	// DefaultRate is the per-session admission rate (engine-touching
	// requests per second, token bucket) for sessions that do not set
	// SessionSpec.Rate. ≤ 0 means unlimited.
	DefaultRate float64
	// DefaultBurst is the matching default bucket depth (≤ 0 means
	// max(1, DefaultRate)).
	DefaultBurst float64
	// CheckpointDir, when non-empty, enables crash-safe checkpointing:
	// every session, the default included, checkpoints to
	// CheckpointDir/<id>.ck (previous generation kept at <id>.ck.prev),
	// every graph journals its mutation batches there (compacted once a
	// journal outgrows its graph), Resume replays the default graph's
	// journal and restores the sessions at startup, and LRU eviction
	// becomes possible.
	CheckpointDir string
	// MaxLoadedSessions bounds how many sessions are resident in memory;
	// above it the least-recently-used idle session is checkpointed and
	// unloaded, then transparently reloaded on its next touch. ≤ 0 means
	// unbounded. Only sessions with a checkpoint path are evictable.
	MaxLoadedSessions int
	// MaxLoadedGraphs bounds how many catalog graphs are resident; above it
	// the least-recently-used graph with no loaded session is unloaded and
	// transparently reloaded from its GraphSpec on the next session touch.
	// ≤ 0 means unbounded. Only graphs registered with a spec are
	// unloadable (see catalog.go).
	MaxLoadedGraphs int
	// DefaultGraphSpec, when non-empty, is the cliutil.GraphSpec string the
	// graph passed to New was loaded from. It makes the default graph
	// reloadable (so it participates in MaxLoadedGraphs) and is recorded in
	// every default-graph session checkpoint for restart-time verification.
	DefaultGraphSpec string
	// CheckpointInterval is the cadence of StartCheckpointer
	// (≤ 0 defaults to DefaultCheckpointInterval).
	CheckpointInterval time.Duration
	// Events, when non-nil, receives structured server events: one
	// "server_panic" per recovered handler panic and one
	// "checkpoint_failure" per failed checkpoint write.
	Events obs.Sink
	// Generator, when non-nil, produces RR sets for every session —
	// created, adopted or reloaded — in place of in-process sampling
	// (a fleet.Coordinator distributing generation over workers). It
	// must honor the core.Generator determinism contract, so swapping
	// it changes where samples are computed, never what they are.
	Generator core.Generator
}

// Server hosts many named OPIM sessions behind an HTTP API. Sessions on
// the same catalog graph share one immutable sampler (graph + diffusion
// model) but nothing else: each has its own lock, δ budget, scratch and
// background-sampling membership, so sessions never block each other —
// across graphs or within one.
type Server struct {
	cfg Config

	// smu guards the session table (sessions/order/touchSeq and each
	// session's lastTouch). It is never held across engine work, checkpoint
	// I/O or any sess.mu acquisition — table reads stay O(1) even while
	// every session is busy.
	smu      sync.Mutex
	sessions map[string]*Session
	order    []string // insertion order; the round-robin rotation
	rrIdx    int      // next rotation position
	touchSeq int64

	loaded atomic.Int64 // resident sessions (gauge mirror)

	// gmu guards the graph catalog table (graphs/gtouchSeq and each
	// entry's lastTouch); like smu it is never held across a load or any
	// entry.mu acquisition (see catalog.go for the full lock order).
	gmu       sync.Mutex
	graphs    map[string]*graphEntry
	gtouchSeq int64

	loadedGraphs atomic.Int64 // resident graphs (gauge mirror)

	// Admission control (see qos.go): admSlots holds one token per
	// concurrently served request, admQueued counts waiters, and svc is
	// the service-time EWMA behind every honest Retry-After hint.
	admSlots    chan struct{}
	admQueued   atomic.Int64
	admMaxQueue int64
	admMaxWait  time.Duration
	svc         ewma

	// The two background goroutines: the round-robin sampler (loop) and
	// the periodic checkpointer (StartCheckpointer).
	sampler, checkpointer background

	// ckWrap, when non-nil, wraps the checkpoint writer — the fault
	// injection seam used by chaos tests (faultinject.TornWriter etc.).
	ckWrap func(io.Writer) io.Writer
	// createHook, when non-nil, runs in createSession between building
	// the engine and publishing the session — the seam tests use to land
	// a mutation batch in that window.
	createHook func(id string)
}

// New wraps session — which becomes the "default" session, on the graph
// registered as "default" — with the given configuration. The session's
// graph is the dataset as loaded (epoch 0). Further graphs are registered
// over HTTP (POST /graphs), further sessions created (POST /sessions);
// Resume replays the default graph's mutation journal and restores every
// session from its checkpoint.
func New(session *core.Online, cfg Config) *Server {
	if cfg.Batch <= 0 {
		cfg.Batch = 10000
	}
	if cfg.MaxRR <= 0 {
		cfg.MaxRR = 1 << 26
	}
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		graphs:   make(map[string]*graphEntry),
	}
	if cfg.MaxInflight > 0 {
		s.admSlots = make(chan struct{}, cfg.MaxInflight)
		switch {
		case cfg.MaxQueue > 0:
			s.admMaxQueue = int64(cfg.MaxQueue)
		case cfg.MaxQueue == 0:
			s.admMaxQueue = int64(2 * cfg.MaxInflight)
		}
		s.admMaxWait = cfg.MaxQueueWait
		if s.admMaxWait <= 0 {
			s.admMaxWait = defaultMaxQueueWait
		}
	}
	// Register the startup graph as the "default" catalog entry. With
	// DefaultGraphSpec set it is reloadable like any POSTed graph;
	// without, it can never be unloaded (symmetric with ckPath-less
	// sessions never being evictable). Pre-publication: no concurrency yet.
	g := session.Sampler().Graph()
	var spec cliutil.GraphSpec
	specString := cfg.DefaultGraphSpec
	if specString != "" {
		parsed, err := cliutil.ParseGraphSpec(specString)
		if err != nil {
			// An unparseable spec cannot reload the graph; keep the entry
			// resident forever rather than fail later.
			specString = ""
		} else {
			spec = parsed
		}
	}
	def := &graphEntry{name: DefaultGraphName, spec: spec, specString: specString, fingerprint: g.Fingerprint()}
	s.installLocked(def, g, session.Sampler(), []string{g.EpochLineage()})
	def.sessions.Store(1)   // the default session
	def.loadedRefs.Store(1) // ... which starts resident
	s.graphs[DefaultGraphName] = def
	s.gtouchSeq++
	def.lastTouch = s.gtouchSeq
	session.SetGraphIdentity(DefaultGraphName, def.specString)
	session.SetGenerator(cfg.Generator)

	defSess := s.newSession(DefaultSessionID, def)
	s.applySessionSpec(defSess, servingSpec{}) // server-default budget, weight and rate
	defSess.setOnlineLocked(session)           // pre-publication: no concurrent access yet
	s.addSession(defSess)
	return s
}

// Handler returns the HTTP handler for the server's API: the endpoint mux
// wrapped in the inflight-cap and panic-recovery middleware (recovery
// outermost, so even a panic inside the limiter is contained). Every route
// names its method, so the mux answers a wrong one with 405 and an Allow
// header, and serves HEAD on GET routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", instrument("metrics", s.handleMetrics))
	// Graph catalog.
	mux.HandleFunc("GET /graphs", instrument("graphs", s.handleListGraphs))
	mux.HandleFunc("POST /graphs", instrument("graphs", s.handleCreateGraph))
	mux.HandleFunc("GET /graphs/{name}", instrument("graph", s.handleGetGraph))
	mux.HandleFunc("DELETE /graphs/{name}", instrument("graph", s.handleDeleteGraph))
	mux.HandleFunc("POST /graphs/{name}/updates", instrument("graph_updates", s.handleGraphUpdates))
	// Session management and per-session endpoints. POST /sessions/bulk
	// wins over the {id} wildcard; GET and DELETE /sessions/bulk address a
	// session named "bulk".
	mux.HandleFunc("GET /sessions", instrument("sessions", s.handleListSessions))
	mux.HandleFunc("POST /sessions", instrument("sessions", s.handleCreateSession))
	mux.HandleFunc("POST /sessions/bulk", instrument("sessions_bulk", s.handleSessionsBulk))
	mux.HandleFunc("GET /sessions/{id}", instrument("session", s.forSession(s.handleGetSession)))
	mux.HandleFunc("DELETE /sessions/{id}", instrument("session", s.forSession(s.handleDeleteSession)))
	mux.HandleFunc("GET /sessions/{id}/status", instrument("status", s.forSession(s.handleStatus)))
	mux.HandleFunc("GET /sessions/{id}/snapshot", instrument("snapshot", s.forSession(s.handleSnapshot)))
	mux.HandleFunc("POST /sessions/{id}/advance", instrument("advance", s.forSession(s.handleAdvance)))
	mux.HandleFunc("POST /sessions/{id}/start", instrument("start", s.forSession(s.handleStart)))
	mux.HandleFunc("POST /sessions/{id}/stop", instrument("stop", s.forSession(s.handleStop)))
	mux.HandleFunc("POST /sessions/{id}/checkpoint", instrument("checkpoint", s.forSession(s.handleCheckpoint)))
	mux.HandleFunc("POST /sessions/{id}/rounds", instrument("rounds", s.forSession(s.handleRounds)))
	mux.HandleFunc("POST /sessions/{id}/observations", instrument("observations", s.forSession(s.handleObservations)))
	return s.recoverer(s.limiter(mux))
}

// sessionHandler is an endpoint scoped to one resolved session.
type sessionHandler func(http.ResponseWriter, *http.Request, *Session)

// forSession resolves the {id} path wildcard and counts the request in the
// session's own labeled series. Resolution does not mark the session used —
// only handlers that need the engine touch it, so pure monitoring
// (/status, peek) never defeats LRU eviction.
func (s *Server) forSession(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sess := s.lookup(id)
		if sess == nil {
			http.Error(w, fmt.Sprintf("unknown session %q", id), http.StatusNotFound)
			return
		}
		sess.mRequests.Inc()
		h(w, r, sess)
	}
}

// instrument wraps a handler with a per-endpoint request counter and
// latency timer in obs.Default(). Every routed request counts, including
// ones the handler refuses; the mux answers a wrong method before this runs.
func instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests := obs.Default().Counter("server_" + name + "_requests_total")
	latency := obs.Default().Timer("server_" + name + "_seconds")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		requests.Inc()
		latency.Observe(time.Since(start))
	}
}

// limiter is the global admission layer (qos.go): above cfg.MaxInflight a
// request briefly queues for a slot in the bounded admission queue and is
// rejected with 429 + an honest Retry-After when it cannot plausibly be
// served within the wait budget. Every completed request feeds the
// service-time EWMA the Retry-After hints are computed from, so the
// middleware measures even when no cap is configured.
func (s *Server) limiter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.admSlots != nil {
			if !s.admitQueue(w, r) {
				return
			}
			defer func() { <-s.admSlots }()
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s.svc.observe(time.Since(start))
		gAdmissionServiceEWMA.Set(s.svc.seconds())
	})
}

// recoverer turns a handler panic into a 500, counts it, and records the
// stack in the log and the event sink — one bad request must never take
// down sessions holding hours of RR sets.
func (s *Server) recoverer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p == nil {
				return
			} else {
				mPanics.Inc()
				stack := debug.Stack()
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, stack)
				obs.Emit(s.cfg.Events, "server_panic", map[string]any{
					"method": r.Method,
					"path":   r.URL.Path,
					"panic":  fmt.Sprint(p),
					"stack":  string(stack),
				})
				// Best effort: a no-op if the handler already wrote a body.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// Status is the /status response body.
type Status struct {
	Session       string `json:"session"`
	NumRR         int64  `json:"num_rr"`
	EdgesExamined int64  `json:"edges_examined"`
	Running       bool   `json:"running"`
	Loaded        bool   `json:"loaded"`
	MaxRR         int64  `json:"max_rr"`
	// Graph names the catalog graph the session runs on;
	// GraphFingerprint is that graph's current content hash and GraphEpoch
	// its position on the mutation epoch chain.
	Graph            string `json:"graph,omitempty"`
	GraphFingerprint string `json:"graph_fingerprint,omitempty"`
	GraphEpoch       int64  `json:"graph_epoch,omitempty"`
}

// SnapshotResponse is the /snapshot response body. GraphEpoch is the
// epoch of the graph the snapshot's RR sets were sampled on: a snapshot
// taken after a batch landed but before its repair sweep reached the
// session describes the previous epoch, and says so.
type SnapshotResponse struct {
	Session    string  `json:"session"`
	Seeds      []int32 `json:"seeds"`
	Alpha      float64 `json:"alpha"`
	SigmaLower float64 `json:"sigma_lower"`
	SigmaUpper float64 `json:"sigma_upper"`
	Theta1     int64   `json:"theta1"`
	Theta2     int64   `json:"theta2"`
	DeltaSpent float64 `json:"delta_spent"`
	Variant    string  `json:"variant"`
	GraphEpoch int64   `json:"graph_epoch,omitempty"`
}

// sessionStatus reads only the lock-free mirrors — a /status poll returns
// immediately even while the session mutex is held by a long advance. The
// graph fields read the entry's atomically published identity, so they
// are lock-free too.
func (s *Server) sessionStatus(sess *Session) Status {
	st := Status{
		Session:       sess.ID,
		NumRR:         sess.statNumRR.Load(),
		EdgesExamined: sess.statEdges.Load(),
		Running:       sess.running.Load(),
		Loaded:        sess.resident.Load(),
		MaxRR:         sess.maxRR,
	}
	id := sess.graph.ident.Load()
	st.Graph = sess.graph.name
	st.GraphFingerprint = id.fingerprint
	st.GraphEpoch = id.epoch
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, sess *Session) {
	writeJSON(w, s.sessionStatus(sess))
}

// runEngine is the one path of a token-charged engine request: snapshot,
// advance, start, checkpoint, rounds, observations, and bulk start and
// advance. It charges sess's token, bounds ctx by RequestTimeout, takes
// the session lock through lockEngine (reloading an evicted engine), runs
// critical under it with the engine resident, and unlocks. It returns
// critical's status and message (0 on success); a tenant over its rate
// gets 429 and the wait until its next token, and no work is done.
// Callers refuse malformed input before calling it, so such input costs
// no token. A ctx that already carries the deadline keeps it: bulk's
// advance phase passes one context, so one deadline covers the phase.
func (s *Server) runEngine(ctx context.Context, sess *Session, critical func(context.Context) (int, string)) (status int, msg string, tokenWait time.Duration) {
	if sess.bucket != nil {
		if ok, wait := sess.bucket.take(time.Now()); !ok {
			mAdmissionRatelimited.Inc()
			sess.mShed.Inc()
			return http.StatusTooManyRequests, fmt.Sprintf("session %q over its request rate (%g/s, burst %g); retry in %ds",
				sess.ID, sess.rate, sess.burst, ceilSeconds(wait)), wait
		}
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if status, msg = s.lockEngine(sess); status != 0 {
		return status, msg, 0
	}
	defer sess.mu.Unlock()
	status, msg = critical(ctx)
	return status, msg, 0
}

// serveEngine runs critical through runEngine for r and writes any
// failure: 429 with the token wait as Retry-After, 503 with the
// queue-derived one, any other status with no hint. It reports whether
// critical succeeded, in which case the handler writes the response.
func (s *Server) serveEngine(w http.ResponseWriter, r *http.Request, sess *Session, critical func(context.Context) (int, string)) bool {
	status, msg, wait := s.runEngine(r.Context(), sess, critical)
	switch status {
	case 0:
		return true
	case http.StatusTooManyRequests:
		setRetryAfter(w, ceilSeconds(wait))
	case http.StatusServiceUnavailable:
		setRetryAfter(w, s.retryAfterSeconds())
	}
	http.Error(w, msg, status)
	return false
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, sess *Session) {
	// The mux serves HEAD on GET routes, but a HEAD snapshot would spend δ
	// budget on an answer whose body is discarded. Refuse it, peek too, so
	// the route answers HEAD one way.
	if r.Method == http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if peek := r.URL.Query().Get("peek"); peek == "1" || peek == "true" {
		// Budget-free read of the last derived snapshot: no token, no
		// session lock, no δ spend, no reload — it works (and stays cheap)
		// even while the session is mid-advance or evicted to disk.
		if p := sess.lastSnap.Load(); p != nil {
			writeJSON(w, *p)
			return
		}
		http.Error(w, fmt.Sprintf("session %q has no derived snapshot yet (GET snapshot without peek derives one)", sess.ID), http.StatusNotFound)
		return
	}
	// Snapshot reuses the session's persistent scratch; sess.mu serializes
	// it against concurrent snapshots and the background sampler.
	var resp SnapshotResponse
	if !s.serveEngine(w, r, sess, func(context.Context) (int, string) {
		snap := sess.online.Snapshot()
		sess.refreshStatsLocked()
		resp = SnapshotResponse{
			Session:    sess.ID,
			Seeds:      snap.Seeds,
			Alpha:      snap.Alpha,
			SigmaLower: snap.SigmaLower,
			SigmaUpper: snap.SigmaUpper,
			Theta1:     snap.Theta1,
			Theta2:     snap.Theta2,
			DeltaSpent: snap.DeltaSpent,
			Variant:    snap.Variant.String(),
			GraphEpoch: sess.online.Sampler().Graph().Epoch(),
		}
		return 0, ""
	}) {
		return
	}
	sess.lastSnap.Store(&resp)
	writeJSON(w, resp)
}

// checkCount refuses an advance count outside [1, max_rr] before the
// request pays a token. A count above the session budget is a client
// error, not a request to be silently clamped; advanceLocked's
// remaining-budget clamp only trims otherwise-valid requests near
// exhaustion (see docs/API.md).
func checkCount(sess *Session, count int) error {
	if count <= 0 {
		return errors.New("count must be a positive integer")
	}
	if int64(count) > sess.maxRR {
		return fmt.Errorf("count %d exceeds the session RR budget max_rr=%d", count, sess.maxRR)
	}
	return nil
}

// advanceLocked generates count RR sets on sess, clamped to its remaining
// budget: the critical section of /advance, bulk advance and a learning
// round. It returns 0, or 503 when ctx ended first — past its deadline
// (counted in server_advance_deadline_total) or cancelled by the client.
// Partial progress is kept on every path.
func (s *Server) advanceLocked(ctx context.Context, sess *Session, count int) (int, string) {
	if remaining := sess.maxRR - sess.online.NumRR(); int64(count) > remaining {
		count = int(remaining)
	}
	generated, err := sess.online.AdvanceContext(ctx, count)
	sess.refreshStatsLocked()
	switch {
	case err == nil:
		return 0, ""
	case errors.Is(err, context.DeadlineExceeded):
		mAdvanceDeadline.Inc()
		return http.StatusServiceUnavailable, fmt.Sprintf("advance deadline exceeded after %d of %d RR sets (progress kept; poll /status)", generated, count)
	}
	return http.StatusServiceUnavailable, fmt.Sprintf("request cancelled after %d of %d RR sets (progress kept)", generated, count)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, sess *Session) {
	// Atoi yields 0 for a non-number and the nearest int for one out of
	// range; checkCount refuses both.
	count, _ := strconv.Atoi(r.URL.Query().Get("count"))
	if err := checkCount(sess, count); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The deadline covers both the wait for the session lock and the
	// generation itself: AdvanceContext checks it before the first chunk,
	// so a request whose deadline passed while queueing does no work.
	if s.serveEngine(w, r, sess, func(ctx context.Context) (int, string) { return s.advanceLocked(ctx, sess, count) }) {
		writeJSON(w, s.sessionStatus(sess))
	}
}

// handleMetrics dumps obs.Default(). Unlike /snapshot it spends no δ
// budget: the core_last_* gauges reflect the most recent snapshot already
// derived (zero if none yet).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := obs.Default().WriteJSON(w); err != nil {
			mEncodeErrors.Inc()
			log.Printf("server: encoding /metrics response: %v", err)
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := obs.Default().WriteText(w); err != nil {
			mEncodeErrors.Inc()
			log.Printf("server: encoding /metrics response: %v", err)
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json or text)", format), http.StatusBadRequest)
	}
}

// startLocked adds sess to the background sampling rotation: the
// critical section of /start and bulk start. running flips under sess.mu
// with the engine resident, and eviction re-checks running under that
// lock, so a running session is never unloaded behind /start's back.
func (s *Server) startLocked(sess *Session) {
	sess.running.Store(true)
	s.sampler.start(s.loop)
}

// stopSession removes sess from the rotation. The empty critical section
// is a barrier: it waits out a sampler chunk already holding the session,
// so "stop returned" means "no further background sampling on this
// session" (the sampler re-checks running under sess.mu).
func (s *Server) stopSession(sess *Session) {
	sess.running.Store(false)
	sess.mu.Lock()
	sess.mu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request, sess *Session) {
	if s.serveEngine(w, r, sess, func(context.Context) (int, string) { s.startLocked(sess); return 0, "" }) {
		writeJSON(w, s.sessionStatus(sess))
	}
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request, sess *Session) {
	// Deliberately not token-gated: a tenant over its rate must always be
	// able to stop its own background sampling.
	s.stopSession(sess)
	writeJSON(w, s.sessionStatus(sess))
}

// background runs at most one goroutine at a time — the server's sampler
// loop, or its periodic checkpointer. The zero value is idle.
type background struct {
	mu   sync.Mutex
	stop chan struct{} // closed by halt; nil while idle
	done chan struct{} // closed when the goroutine has returned
}

// start runs f on a new goroutine unless one is already running; f
// returns once stop is closed.
func (b *background) start(f func(stop <-chan struct{})) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop != nil {
		return
	}
	b.stop, b.done = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		f(stop)
	}(b.stop, b.done)
}

// halt closes the running goroutine's stop channel and waits for it to
// return. Safe to call when idle.
func (b *background) halt() {
	b.mu.Lock()
	stop, done := b.stop, b.done
	b.stop, b.done = nil, nil
	b.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Stop halts the background sampler and waits for its goroutine to have
// fully exited, then clears every session's sampling membership (so
// Status.Running reads false everywhere). Safe to call at any time,
// including when not running.
func (s *Server) Stop() {
	s.sampler.halt()
	for _, sess := range s.snapshotSessions() {
		sess.running.Store(false)
	}
}

// snapshotSessions copies the session list out of the table lock.
func (s *Server) snapshotSessions() []*Session {
	s.smu.Lock()
	defer s.smu.Unlock()
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// Shutdown is the graceful teardown: it stops the background sampler and
// the periodic checkpointer (waiting for both goroutines to exit), then
// writes a final checkpoint for every loaded session that has one
// configured, so no sampled RR set is lost. It does not own the HTTP
// listener; callers drain in-flight requests first (http.Server.Shutdown),
// then call this.
func (s *Server) Shutdown() error {
	s.Stop()
	s.checkpointer.halt()
	var first error
	for _, sess := range s.snapshotSessions() {
		if err := s.checkpointResident(sess); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// loopIdleWait is how long the sampler parks when no session is running.
const loopIdleWait = 2 * time.Millisecond

// nextQuantum picks the next running, loaded session in rotation order
// and hands out its deficit-weighted quantum: each visit credits the
// session weight × Batch RR sets of deficit (capped at deficitBurstCap
// visits' worth) and grants the whole accumulated deficit, so a session's
// share of sampling throughput is proportional to its weight — a weight-4
// session receives 4× the RR sets per rotation of a weight-1 session —
// not merely to its existence, as the old one-quantum round-robin gave.
func (s *Server) nextQuantum() (*Session, int64) {
	s.smu.Lock()
	defer s.smu.Unlock()
	n := len(s.order)
	for i := 0; i < n; i++ {
		idx := (s.rrIdx + i) % n
		sess := s.sessions[s.order[idx]]
		if sess == nil || !sess.running.Load() || !sess.resident.Load() {
			continue
		}
		s.rrIdx = (idx + 1) % n
		credit := sess.weight * float64(s.cfg.Batch)
		sess.deficit += credit
		if cap := credit * deficitBurstCap; sess.deficit > cap {
			sess.deficit = cap
		}
		if quantum := int64(sess.deficit); quantum > 0 {
			return sess, quantum
		}
		// A very small weight may not have accrued one whole RR set yet;
		// the deficit banks and the rotation moves on.
	}
	return nil, 0
}

// loop is the deficit-weighted round-robin background sampler: one
// goroutine multiplexing every running session. Each visit serves the
// session's accumulated deficit in chunks of at most one Batch, releasing
// the session mutex between chunks, so however large a heavy tenant's
// quantum grows, a client request on any session still waits at most one
// Batch of that session's own work — weighted shares without weighted
// latency.
func (s *Server) loop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		sess, quantum := s.nextQuantum()
		if sess == nil {
			select {
			case <-stop:
				return
			case <-time.After(loopIdleWait):
			}
			continue
		}
		var served int64
		for quantum > 0 {
			sess.mu.Lock()
			if !sess.running.Load() || sess.online == nil {
				// Stopped or evicted between selection and lock acquisition.
				sess.mu.Unlock()
				break
			}
			chunk := min64(quantum, int64(s.cfg.Batch))
			if remaining := sess.maxRR - sess.online.NumRR(); chunk >= remaining {
				chunk = remaining
				if chunk <= 0 {
					// Budget exhausted: leave the rotation; /start re-admits.
					// The flip happens under sess.mu with the exhaustion
					// re-checked in this same critical section — stored after
					// unlocking, it could clobber a concurrent POST /start
					// that legitimately flipped the session running in the
					// gap (the lost-start race).
					sess.running.Store(false)
					sess.mu.Unlock()
					break
				}
			}
			sess.online.Advance(int(chunk))
			sess.refreshStatsLocked()
			sess.mu.Unlock()
			served += chunk
			quantum -= chunk
			// A stop request must not wait out a whole multi-batch quantum.
			select {
			case <-stop:
				s.creditServed(sess, served)
				return
			default:
			}
		}
		s.creditServed(sess, served)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// writeJSON encodes v as the response body. An encoding failure here is
// unrecoverable from the client's point of view — the 200 header and part
// of the body may already be on the wire, so sending http.Error would be
// a silent no-op; instead the failure is logged and counted
// (server_encode_errors_total).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		mEncodeErrors.Inc()
		log.Printf("server: encoding response: %v", err)
	}
}
