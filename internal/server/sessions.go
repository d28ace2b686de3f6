package server

// Multi-session management: the server hosts many named OPIM sessions —
// the paper's online-processing paradigm (§2.2) with one pause-and-report
// query per user — each owning its own lock, scratch, δ budget and
// background-sampling membership. Sessions are created, listed and
// deleted over HTTP (/sessions) and addressed at /sessions/{id}/... — the
// session named "default", which New registers, included.
//
// Residency is bounded: with Config.CheckpointDir and MaxLoadedSessions
// set, the least-recently-used idle session is checkpointed and unloaded
// under its own lock, and the next request that needs its engine reloads
// it under that lock (lockEngine). A request racing an eviction waits for
// the session lock as it would behind any other request.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// DefaultSessionID names the session New registers from the engine it is
// handed (opimd's flags).
const DefaultSessionID = "default"

// Session-manager metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	mSessionsCreated  = obs.Default().Counter("server_sessions_created_total")
	mSessionsDeleted  = obs.Default().Counter("server_sessions_deleted_total")
	mSessionsEvicted  = obs.Default().Counter("server_sessions_evicted_total")
	mSessionsReloaded = obs.Default().Counter("server_sessions_reloaded_total")
	gSessionsLoaded   = obs.Default().Gauge("server_sessions_loaded")
)

// Session is one managed OPIM session: a core.Online plus the serving
// state around it. All access to the engine goes through mu, which is
// per-session — a slow snapshot or advance on one session never blocks
// another.
type Session struct {
	// ID is the immutable session name ([A-Za-z0-9][A-Za-z0-9._-]*).
	ID string

	// mu serializes every use of online: handlers, the round-robin
	// sampler, checkpoint writes, eviction and reload.
	mu     sync.Mutex
	online *core.Online // nil while unloaded

	resident atomic.Bool // online != nil, for lock-free reads; set under mu
	running  atomic.Bool // background round-robin sampling membership

	maxRR int64

	// statNumRR/statEdges cache the engine counters after every mutation,
	// so /status and GET /sessions never take mu — they stay readable
	// while a long advance holds the session lock.
	statNumRR atomic.Int64
	statEdges atomic.Int64

	// opts caches the engine's Options for lock-free listing; nil until
	// the session has been loaded at least once (adopted checkpoints).
	opts atomic.Pointer[core.Options]

	// lastSnap caches the most recent derived snapshot for the
	// budget-free peek path. It survives eviction deliberately: a
	// dashboard can poll an unloaded session without forcing a reload.
	lastSnap atomic.Pointer[SnapshotResponse]

	// ckPath, when non-empty, is where this session checkpoints; a
	// session without one can never be evicted.
	ckPath string

	// weight is the session's share of background sampling throughput
	// (deficit-weighted round-robin, see qos.go); immutable after creation.
	weight float64
	// deficit is the DWRR deficit counter in RR sets, guarded by the
	// server's smu (it is rotation state, like lastTouch).
	deficit float64
	// bucket rate-limits admission of engine-touching requests for this
	// tenant; nil means unlimited. rate/burst mirror its configuration for
	// lock-free listing.
	bucket      *tokenBucket
	rate, burst float64

	// graph is the catalog entry the session runs on, set at creation (or
	// adoption) and immutable afterwards. The session holds one `sessions`
	// reference on it for its whole registered life, plus one `loadedRefs`
	// reference while resident (see catalog.go).
	graph *graphEntry

	// ckEpoch is the graph epoch of the session's newest checkpoint on
	// disk, −1 while it has none: every successful checkpoint write sets it
	// after its rename, and so does restore. Compaction keeps the epoch
	// chain back to the oldest ckEpoch on the graph, so it never strands a
	// checkpoint; a session that never checkpoints pins nothing.
	ckEpoch atomic.Int64

	// spec is the serving spec as the client gave it; it rides in the
	// engine's checkpoint extension (syncExtLocked), so an adopting daemon
	// re-applies it. spec.RoundRR is the RR-set budget a learning round
	// generates before seeds are served (0 = defaultRoundRR).
	spec servingSpec

	// campaign, when non-nil, makes this a learning session: the
	// feedback-driven round machine of learn.Campaign (see learn.go).
	// Guarded by mu; its serialized state rides inside the engine's OPIMS6
	// extension blob, so it survives eviction, restart and kill −9 with
	// the checkpoint.
	campaign *learn.Campaign

	// lastTouch orders LRU eviction; guarded by the server's smu.
	lastTouch int64

	// The session's labeled series in obs.Default(), registered by
	// addSession (a learning session's gauges by setLearnGaugesLocked) and
	// deleted by removeSession (sessionSeries names them).
	mRequests, mShed *obs.Counter
	gDeficit         *obs.Gauge
}

// sessionSeries names the labeled series a session owns in obs.Default().
func sessionSeries(id string) (requests, shed, deficit, phase, entropy string) {
	return obs.Labeled("server_session_requests_total", "session", id),
		obs.Labeled("server_session_shed_total", "session", id),
		obs.Labeled("server_session_deficit", "session", id),
		obs.Labeled("learn_round_phase", "session", id),
		obs.Labeled("learn_posterior_entropy", "session", id)
}

// refreshStatsLocked re-publishes the lock-free counter mirrors; callers
// hold sess.mu with online non-nil.
func (sess *Session) refreshStatsLocked() {
	sess.statNumRR.Store(sess.online.NumRR())
	sess.statEdges.Store(sess.online.EdgesExamined())
}

// setOnlineLocked installs an engine (created or reloaded) and refreshes
// every mirror; callers hold sess.mu, or own sess before publication. A
// registered session's engine changes only through installEngineLocked and
// dropEngineLocked. Learner state in the checkpoint extension, when
// present, restores the session's learning campaign exactly where the
// serialized round machine left off.
func (sess *Session) setOnlineLocked(online *core.Online) {
	sess.online = online
	sess.resident.Store(true)
	opts := online.Options()
	sess.opts.Store(&opts)
	sess.refreshStatsLocked()
	_, learner, err := splitExt(online.Extension())
	if err == nil && len(learner) > 0 {
		var c *learn.Campaign
		if c, err = learn.UnmarshalCampaign(learner, online.Sampler().Graph()); err == nil {
			sess.campaign = c
		}
	}
	if err != nil {
		// Keep serving the session (the RR state is intact) but say
		// loudly that the feedback loop lost its posterior.
		log.Printf("server: session %q: cannot restore learner state from checkpoint extension: %v", sess.ID, err)
	}
}

// servingSpec is the server-owned head of a session's checkpoint
// extension: the SessionSpec serving fields as the client gave them (0 =
// server default), re-applied when a restarted daemon adopts the session.
// A learning session's campaign state follows the head's newline.
type servingSpec struct {
	MaxRR   int64   `json:"max_rr,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Burst   float64 `json:"burst,omitempty"`
	RoundRR int     `json:"round_rr,omitempty"`
}

// syncExtLocked re-serializes the server-owned checkpoint extension — the
// serving spec, then any learner state — into the engine, so the next
// checkpoint (synchronous, periodic, eviction or shutdown) carries both.
// A session with a default spec and no campaign carries none. Callers
// hold sess.mu.
func (sess *Session) syncExtLocked() {
	if sess.online == nil {
		return
	}
	var learner []byte
	if sess.campaign != nil {
		b, err := sess.campaign.MarshalBinary()
		if err != nil {
			// Marshal of an in-memory campaign cannot fail today; guard anyway
			// so a future encoding bug cannot silently checkpoint stale state.
			panic(fmt.Sprintf("server: serializing learner state for session %q: %v", sess.ID, err))
		}
		learner = b
	}
	if sess.spec == (servingSpec{}) && learner == nil {
		sess.online.SetExtension(nil)
		return
	}
	head, _ := json.Marshal(sess.spec) // finite numbers only: cannot fail
	sess.online.SetExtension(append(append(head, '\n'), learner...))
}

// splitExt parses an extension written by syncExtLocked into the serving
// spec and the learner state (nil when absent).
func splitExt(ext []byte) (servingSpec, []byte, error) {
	var spec servingSpec
	if len(ext) == 0 {
		return spec, nil, nil
	}
	head, learner, _ := bytes.Cut(ext, []byte{'\n'})
	err := json.Unmarshal(head, &spec)
	return spec, learner, err
}

// SessionSpec is the POST /sessions request body. Zero values take the
// server defaults noted per field.
type SessionSpec struct {
	// ID names the session (required; [A-Za-z0-9][A-Za-z0-9._-]*, ≤ 64).
	ID string `json:"id"`
	// Graph names the catalog graph the session runs on ("" = "default").
	Graph string `json:"graph,omitempty"`
	// K is the seed-set size (required, ≥ 1).
	K int `json:"k"`
	// Delta is the failure probability (0 = 1/n).
	Delta float64 `json:"delta"`
	// Variant is "vanilla", "plus" or "prime" ("" = plus).
	Variant string `json:"variant"`
	// Seed drives the session's sample stream.
	Seed uint64 `json:"seed"`
	// Workers bounds RR-generation parallelism (0 = GOMAXPROCS; larger
	// values are rejected).
	Workers int `json:"workers"`
	// Union enables the δ/2^i union-budget snapshot schedule.
	Union bool `json:"union"`
	// Exact switches to Clopper–Pearson bounds.
	Exact bool `json:"exact"`
	// BaseSeeds switches the session to the augmentation problem.
	BaseSeeds []int32 `json:"base_seeds"`
	// MaxRR overrides the server's RR budget for this session (0 =
	// Config.MaxRR; larger values are rejected).
	MaxRR int64 `json:"max_rr"`
	// Weight is the session's share of background sampling throughput: a
	// weight-4 session receives ~4× the RR quanta per rotation of a
	// weight-1 session (0 = 1; must be in (0, 1024]).
	Weight float64 `json:"weight,omitempty"`
	// Rate caps this tenant's engine-touching requests (snapshot, advance,
	// start, checkpoint, rounds, observations) in requests/second via a
	// token bucket. 0 takes the server default (-default-rate); negative
	// means explicitly unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth (0 = server default, then
	// max(1, rate)).
	Burst float64 `json:"burst,omitempty"`
	// Learn, when set, makes this a learning session: edge weights are
	// treated as unknown, POST rounds/observations drive the
	// explore-exploit feedback loop, and the Beta posterior state rides in
	// every checkpoint (see docs/LEARNING.md).
	Learn *LearnSpec `json:"learn,omitempty"`
}

// LearnSpec configures a learning session (SessionSpec.Learn).
type LearnSpec struct {
	// Seed roots the campaign's per-round Thompson draw streams.
	Seed uint64 `json:"seed"`
	// RoundRR is the RR-set count generated on the round's realization
	// graph before seeds are served (0 = the server default, 1024).
	RoundRR int `json:"round_rr,omitempty"`
}

// SessionInfo describes one session in /sessions responses. Option fields
// are zero for a session adopted from a checkpoint that has not been
// loaded yet (they live inside the checkpoint).
type SessionInfo struct {
	ID               string  `json:"id"`
	Graph            string  `json:"graph,omitempty"`
	GraphFingerprint string  `json:"graph_fingerprint,omitempty"`
	GraphEpoch       int64   `json:"graph_epoch,omitempty"`
	K                int     `json:"k,omitempty"`
	Delta            float64 `json:"delta,omitempty"`
	Variant          string  `json:"variant,omitempty"`
	Seed             uint64  `json:"seed"`
	Union            bool    `json:"union"`
	Exact            bool    `json:"exact"`
	BaseSeeds        []int32 `json:"base_seeds,omitempty"`
	NumRR            int64   `json:"num_rr"`
	MaxRR            int64   `json:"max_rr"`
	Weight           float64 `json:"weight"`
	Rate             float64 `json:"rate,omitempty"`
	Burst            float64 `json:"burst,omitempty"`
	Running          bool    `json:"running"`
	Loaded           bool    `json:"loaded"`
	Checkpoint       string  `json:"checkpoint,omitempty"`
}

// SessionListResponse is the GET /sessions response body.
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

var sessionIDRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// lookup returns the session without marking it used (nil if unknown).
func (s *Server) lookup(id string) *Session {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.sessions[id]
}

// touch marks sess most-recently-used for LRU eviction.
func (s *Server) touch(sess *Session) {
	s.smu.Lock()
	s.touchSeq++
	sess.lastTouch = s.touchSeq
	s.smu.Unlock()
}

// addSession registers sess and its labeled series; it fails when the id
// is taken. A session published resident (created, or New's default)
// counts toward MaxLoadedSessions here; any later residency change goes
// through installEngineLocked and dropEngineLocked. The series are created
// under smu, the lock removeSession deletes them under, so a create racing
// the delete of a previous session of the same id never ends up counting
// into unregistered series.
func (s *Server) addSession(sess *Session) error {
	s.smu.Lock()
	defer s.smu.Unlock()
	if _, ok := s.sessions[sess.ID]; ok {
		return fmt.Errorf("session %q already exists", sess.ID)
	}
	requests, shed, deficit, _, _ := sessionSeries(sess.ID)
	sess.mRequests, sess.mShed = obs.Default().Counter(requests), obs.Default().Counter(shed)
	sess.gDeficit = obs.Default().Gauge(deficit)
	s.sessions[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	s.touchSeq++
	sess.lastTouch = s.touchSeq
	if sess.resident.Load() {
		gSessionsLoaded.Set(float64(s.loaded.Add(1)))
	}
	return nil
}

// newSession builds an unpublished session on graph e (nil until an
// adopted session's checkpoint names its graph) with no checkpoint yet.
func (s *Server) newSession(id string, e *graphEntry) *Session {
	sess := &Session{ID: id, ckPath: s.ckPathFor(id), graph: e}
	sess.ckEpoch.Store(-1)
	return sess
}

// ckPathFor returns where a session of this id checkpoints
// ("" when checkpointing is not configured).
func (s *Server) ckPathFor(id string) string {
	if s.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.CheckpointDir, id+".ck")
}

// createSession builds and registers a session from spec. The returned
// status is the HTTP code for the failure (400 invalid spec, 409 name
// taken, 500 otherwise).
func (s *Server) createSession(spec SessionSpec) (*Session, int, error) {
	if !sessionIDRe.MatchString(spec.ID) {
		return nil, http.StatusBadRequest,
			fmt.Errorf("session id %q invalid (want [A-Za-z0-9][A-Za-z0-9._-]*, at most 64 chars)", spec.ID)
	}
	variant, err := parseVariant(spec.Variant)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	maxRR := spec.MaxRR
	if maxRR == 0 {
		maxRR = s.cfg.MaxRR
	}
	if maxRR < 0 || maxRR > s.cfg.MaxRR {
		return nil, http.StatusBadRequest,
			fmt.Errorf("max_rr %d outside (0, server budget %d]", maxRR, s.cfg.MaxRR)
	}
	// Every generation for the session starts min(workers, count) shards,
	// each with n-entry scratch arrays; more than the process can run only
	// cost memory.
	if procs := runtime.GOMAXPROCS(0); spec.Workers < 0 || spec.Workers > procs {
		return nil, http.StatusBadRequest,
			fmt.Errorf("workers %d outside [0, GOMAXPROCS %d]", spec.Workers, procs)
	}
	if err := validateQoSSpec(spec); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if spec.Learn != nil {
		if err := checkRoundRR(spec.Learn.RoundRR, maxRR); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	graphName := spec.Graph
	if graphName == "" {
		graphName = DefaultGraphName
	}
	entry, status, err := s.graphForSession(graphName)
	if err != nil {
		return nil, status, err
	}
	sampler, err := s.acquireGraph(entry)
	if err != nil {
		entry.sessions.Add(-1)
		return nil, http.StatusInternalServerError, err
	}
	fail := func(status int, err error) (*Session, int, error) {
		s.releaseGraph(entry)
		entry.sessions.Add(-1)
		return nil, status, err
	}
	delta := spec.Delta
	if delta == 0 {
		delta = 1 / float64(sampler.Graph().N())
	}
	online, err := core.NewOnline(sampler, core.Options{
		K:           spec.K,
		Delta:       delta,
		Variant:     variant,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
		UnionBudget: spec.Union,
		Exact:       spec.Exact,
		BaseSeeds:   spec.BaseSeeds,
		Events:      s.cfg.Events,
		Generator:   s.cfg.Generator,
	})
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	online.SetGraphIdentity(entry.name, entry.specString)
	sess := s.newSession(spec.ID, entry)
	serving := servingSpec{MaxRR: spec.MaxRR, Weight: spec.Weight, Rate: spec.Rate, Burst: spec.Burst}
	if spec.Learn != nil {
		serving.RoundRR = spec.Learn.RoundRR
		sess.campaign = learn.NewCampaign(sampler.Graph(), spec.Learn.Seed)
	}
	s.applySessionSpec(sess, serving)
	sess.setOnlineLocked(online) // pre-publication: no concurrent access yet
	sess.syncExtLocked()
	if s.createHook != nil {
		s.createHook(spec.ID)
	}
	// A batch that landed while the engine was being built swept the table
	// before addSession published this session: catch up now, holding the
	// session lock from publication on, so no checkpoint can serialize the
	// engine on an epoch that batch's compaction dropped.
	sess.mu.Lock()
	if err := s.addSession(sess); err != nil {
		sess.mu.Unlock()
		return fail(http.StatusConflict, err)
	}
	if s.catchUp(sess.online, entry) {
		mSessionsCaughtUp.Inc()
	}
	sess.refreshStatsLocked()
	s.setLearnGaugesLocked(sess)
	sess.mu.Unlock()
	mSessionsCreated.Inc()
	s.maybeEvict(sess)
	s.maybeUnloadGraphs(entry)
	return sess, 0, nil
}

// Resume restores every checkpointed session in CheckpointDir after a
// restart. It first replays the default graph's mutation journal onto the
// graph New registered (the dataset as loaded) and resamples the engines
// on it — at startup only the fresh default session — so every restore
// checks its checkpoint against the replayed epoch chain. A replay error
// fails Resume. Then it restores each session through restore, in two
// phases:
//
//  1. every registered session (at startup, the default session New
//     created) is restored in place, replacing its fresh engine — which is
//     kept when neither checkpoint generation exists (first boot);
//  2. every unregistered id with an "<id>.ck" or "<id>.ck.prev" file is
//     adopted.
//
// The order matters under MaxLoadedSessions: each adoption evicts the
// least-recently-used idle session, and evicting a still-fresh registered
// session would write its empty engine over the checkpoint it has yet to
// restore from. Each checkpoint is loaded now, validating it before the
// daemon starts serving, so under a residency cap the surplus is
// checkpoint-evicted right back and reloaded on its first touch. A
// checkpoint that exists but cannot be resumed (both generations bad, or
// off its graph's epoch chain) is an error, not a silently discarded
// session: that would forget every unit of δ it spent. It returns the
// adopted ids, sorted.
func (s *Server) Resume() ([]string, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, nil
	}
	def := s.lookupGraph(DefaultGraphName)
	def.mu.Lock()
	g, chain, err := replayMutationLog(s.cfg.CheckpointDir, def.name, def.g)
	if err == nil && g != def.g {
		s.installLocked(def, g, rrset.NewSampler(g, def.sampler.Model()), chain)
	}
	def.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%w (remove the mutation journal to start from the base graph, abandoning its epochs)", err)
	}
	if g.Epoch() > 0 {
		for _, sess := range s.snapshotSessions() {
			sess.mu.Lock()
			if sess.graph == def && sess.online != nil {
				s.catchUp(sess.online, def)
			}
			sess.mu.Unlock()
		}
		log.Printf("server: default graph at epoch %d after journal replay (n=%d m=%d)", g.Epoch(), g.N(), g.M())
	}
	for _, sess := range s.snapshotSessions() {
		sess.mu.Lock()
		err := s.restore(sess)
		numRR := sess.statNumRR.Load()
		sess.mu.Unlock()
		switch {
		case err == nil:
			log.Printf("server: resumed session %q from %s (num_rr=%d); its parameters come from the checkpoint", sess.ID, sess.ckPath, numRR)
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("server: resuming session %q: %w (remove the checkpoint to start fresh)", sess.ID, err)
		}
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: reading checkpoint dir: %w", err)
	}
	var adopted []string
	for _, de := range entries {
		id, ok := strings.CutSuffix(strings.TrimSuffix(de.Name(), fsutil.PrevSuffix), ".ck")
		if de.IsDir() || !ok || !sessionIDRe.MatchString(id) || s.lookup(id) != nil {
			continue
		}
		sess := s.newSession(id, nil)
		sess.mu.Lock()
		err := s.restore(sess)
		sess.mu.Unlock()
		if err != nil {
			sort.Strings(adopted)
			return adopted, fmt.Errorf("server: adopting session %q: %w (remove the checkpoint to start fresh)", id, err)
		}
		adopted = append(adopted, id)
		s.maybeEvict(sess)
		s.maybeUnloadGraphs(sess.graph)
	}
	sort.Strings(adopted)
	return adopted, nil
}

// lockEngine is the one way a request reaches a session's engine: it
// touches sess and takes sess.mu, reloading the engine from its checkpoint
// under that lock when it was evicted, and then enforces
// MaxLoadedSessions without dropping the lock (eviction only try-locks).
// On success the caller holds sess.mu; otherwise the lock is released and
// the status and message say why: 404 when a DELETE already unregistered
// the session, 500 when the reload failed.
func (s *Server) lockEngine(sess *Session) (int, string) {
	s.touch(sess)
	sess.mu.Lock()
	if sess.resident.Load() {
		return 0, ""
	}
	// Reloading a session a DELETE already unregistered would count it
	// loaded where no eviction can find it. (smu inside sess.mu: nothing
	// locks in the opposite order.)
	if s.lookup(sess.ID) != sess {
		sess.mu.Unlock()
		return http.StatusNotFound, fmt.Sprintf("session %q was deleted", sess.ID)
	}
	if err := s.restore(sess); err != nil {
		sess.mu.Unlock()
		return http.StatusInternalServerError,
			fmt.Sprintf("session %q: reload from checkpoint %s failed: %v", sess.ID, sess.ckPath, err)
	}
	mSessionsReloaded.Inc()
	s.maybeEvict(sess)
	return 0, ""
}

// installEngineLocked makes online, built on a graph reference the
// caller acquired, the engine of the registered session sess, and
// publishes the learning gauges of a campaign it restores. A session that
// becomes resident counts toward MaxLoadedSessions; one that already was
// releases its replaced engine's graph reference. Callers hold sess.mu.
func (s *Server) installEngineLocked(sess *Session, online *core.Online) {
	if sess.online != nil {
		s.releaseGraph(sess.graph)
	} else {
		gSessionsLoaded.Set(float64(s.loaded.Add(1)))
	}
	sess.setOnlineLocked(online)
	s.setLearnGaugesLocked(sess)
}

// dropEngineLocked unloads sess's engine, uncounting the session and
// releasing its graph reference, and reports whether it was resident.
// Callers hold sess.mu, so a reload or eviction racing a delete is counted
// exactly once whichever side takes the lock first.
func (s *Server) dropEngineLocked(sess *Session) bool {
	if sess.online == nil {
		return false
	}
	sess.online = nil
	sess.resident.Store(false)
	gSessionsLoaded.Set(float64(s.loaded.Add(-1)))
	s.releaseGraph(sess.graph)
	return true
}

// shed enforces a residency cap: it unloads pick's victims until pick
// finds none (the cap holds, or nothing else may go). A victim that cannot
// go now (in use, or its checkpoint write failed) is skipped for the rest
// of the pass instead of re-picked — a full or read-only checkpoint dir
// must not turn the triggering request into a busy loop that rewrites the
// same session forever; the cap is re-enforced on the next pass.
func shed[T comparable](pick func(skip map[T]bool) T, unload func(T) bool) {
	var none T
	var skip map[T]bool
	for victim := pick(skip); victim != none; victim = pick(skip) {
		if !unload(victim) {
			if skip == nil {
				skip = make(map[T]bool)
			}
			skip[victim] = true
		}
	}
}

// maybeEvict enforces MaxLoadedSessions: while too many sessions are
// resident it checkpoints-then-unloads the least-recently-used idle one
// (never keep, never a running or checkpoint-less session). Eviction work
// happens under no lock but the victim's own, which it only try-locks, so
// the caller may hold keep's.
func (s *Server) maybeEvict(keep *Session) {
	if s.cfg.MaxLoadedSessions > 0 {
		shed(func(skip map[*Session]bool) *Session { return s.pickEvictionVictim(keep, skip) }, s.evictSession)
	}
}

func (s *Server) pickEvictionVictim(keep *Session, skip map[*Session]bool) *Session {
	s.smu.Lock()
	defer s.smu.Unlock()
	if int(s.loaded.Load()) <= s.cfg.MaxLoadedSessions {
		return nil
	}
	var victim *Session
	for _, sess := range s.sessions {
		if sess == keep || skip[sess] || sess.ckPath == "" || sess.running.Load() || !sess.resident.Load() {
			continue
		}
		if victim == nil || sess.lastTouch < victim.lastTouch {
			victim = sess
		}
	}
	return victim
}

// evictSession checkpoints the victim and drops its engine in one
// critical section, reporting whether the session was unloaded. It only
// try-locks: a held lock means the session is in use (a learning round
// holds it throughout), so it is not idle. Under the lock it re-checks
// what the pick read without it: resident (a DELETE unloads under the
// lock, so a deleted session is never evicted and no checkpoint brings it
// back) and not running. A failed checkpoint keeps the session loaded:
// unloading without a durable copy would lose its δ accounting.
func (s *Server) evictSession(sess *Session) bool {
	if !sess.mu.TryLock() {
		return false
	}
	evicted := sess.resident.Load() && !sess.running.Load()
	if evicted {
		_, err := s.checkpointLocked(sess)
		evicted = err == nil && s.dropEngineLocked(sess)
	}
	sess.mu.Unlock()
	if evicted {
		mSessionsEvicted.Inc()
		// The session left memory: its graph may now be unloadable.
		s.maybeUnloadGraphs(nil)
	}
	return evicted
}

// sessionInfo builds the listing entry without taking the session mutex.
func (s *Server) sessionInfo(sess *Session) SessionInfo {
	info := SessionInfo{
		ID:         sess.ID,
		NumRR:      sess.statNumRR.Load(),
		MaxRR:      sess.maxRR,
		Weight:     sess.weight,
		Rate:       sess.rate,
		Burst:      sess.burst,
		Running:    sess.running.Load(),
		Loaded:     sess.resident.Load(),
		Checkpoint: sess.ckPath,
	}
	id := sess.graph.ident.Load()
	info.Graph = sess.graph.name
	info.GraphFingerprint = id.fingerprint
	info.GraphEpoch = id.epoch
	if opts := sess.opts.Load(); opts != nil {
		info.K = opts.K
		info.Delta = opts.Delta
		info.Variant = variantWire(opts.Variant)
		info.Seed = opts.Seed
		info.Union = opts.UnionBudget
		info.Exact = opts.Exact
		info.BaseSeeds = opts.BaseSeeds
	}
	return info
}

// handleListSessions is GET /sessions.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.smu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.smu.Unlock()
	resp := SessionListResponse{Sessions: make([]SessionInfo, 0, len(sessions))}
	for _, sess := range sessions {
		resp.Sessions = append(resp.Sessions, s.sessionInfo(sess))
	}
	sort.Slice(resp.Sessions, func(i, j int) bool { return resp.Sessions[i].ID < resp.Sessions[j].ID })
	writeJSON(w, resp)
}

// handleCreateSession is POST /sessions.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sess, status, err := s.createSession(spec)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, s.sessionInfo(sess))
}

// handleGetSession is GET /sessions/{id}.
func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request, sess *Session) {
	writeJSON(w, s.sessionInfo(sess))
}

// handleDeleteSession is DELETE /sessions/{id}: it removes the session
// together with its checkpoint files.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request, sess *Session) {
	s.removeSession(sess)
	writeJSON(w, map[string]string{"deleted": sess.ID})
}

// removeSession unregisters sess and its labeled series, waits out any
// in-flight sampler batch, request or eviction, and deletes its checkpoint
// generations (a deleted session must not resurrect on restart). An
// eviction that holds the session lock finishes its write before the files
// go; one that locks after the delete finds the session unregistered and
// skips it. Requests still in flight count into the unregistered series,
// which never reappear.
func (s *Server) removeSession(sess *Session) {
	s.smu.Lock()
	if s.sessions[sess.ID] != sess {
		s.smu.Unlock()
		return
	}
	delete(s.sessions, sess.ID)
	obs.Default().Delete(sessionSeries(sess.ID))
	for i, id := range s.order {
		if id == sess.ID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.smu.Unlock()

	sess.running.Store(false)
	sess.mu.Lock() // barrier: wait out an in-flight batch, request or eviction
	s.dropEngineLocked(sess)
	sess.mu.Unlock()
	sess.graph.sessions.Add(-1)
	s.maybeUnloadGraphs(nil)

	if sess.ckPath != "" {
		os.Remove(sess.ckPath)
		os.Remove(sess.ckPath + fsutil.PrevSuffix)
	}
	mSessionsDeleted.Inc()
}

// parseVariant maps the wire names onto core variants ("" = plus, the
// paper's recommended setting and opimd's flag default).
func parseVariant(name string) (core.Variant, error) {
	switch strings.ToLower(name) {
	case "", "plus":
		return core.Plus, nil
	case "vanilla":
		return core.Vanilla, nil
	case "prime":
		return core.Prime, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want vanilla, plus or prime)", name)
}

// variantWire is parseVariant's inverse: SessionInfo.Variant round-trips
// into SessionSpec.Variant (the paper names from Variant.String do not).
func variantWire(v core.Variant) string {
	switch v {
	case core.Vanilla:
		return "vanilla"
	case core.Prime:
		return "prime"
	}
	return "plus"
}
