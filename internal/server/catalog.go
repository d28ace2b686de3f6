package server

// Graph catalog: graphs are first-class, named, content-addressed
// resources. Each catalog entry pins one (graph, diffusion model) pair
// behind one shared rrset.Sampler, so N sessions on the same dataset share
// a single alias-table build and RR generation structure. Entries are
// reference-counted two ways: `sessions` counts every registered session
// naming the graph (DELETE /graphs/{name} answers 409 while it is
// non-zero), and `loadedRefs` counts sessions currently resident in
// memory — only a graph with zero loadedRefs may be unloaded. With
// Config.MaxLoadedGraphs set, idle graphs are LRU-unloaded (mirroring
// session eviction, but without a disk write: a graph reloads from its
// GraphSpec, then replays its mutation journal the way startup does) and
// transparently reloaded on the next session touch, with the reloaded
// content verified against the entry's recorded fingerprint and lineage
// so a dataset or journal edited on disk surfaces as a loud error, never
// as silently different guarantees. Without a CheckpointDir there is no
// journal, so a mutated graph stays resident.
//
// Lock order: sess.mu → entry.mu → gmu (the catalog table lock). gmu is
// never held across a graph load or any entry.mu acquisition.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// DefaultGraphName names the graph registered from opimd's startup flags;
// sessions that do not name a graph run on it.
const DefaultGraphName = "default"

// Graph-catalog metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	gGraphsLoaded    = obs.Default().Gauge("server_graphs_loaded")
	mGraphLoadTime   = obs.Default().Timer("server_graph_load_seconds")
	mGraphUnloadTime = obs.Default().Timer("server_graph_unload_seconds")
)

// graphIdent is a graph entry's current identity — content fingerprint,
// position on the epoch chain, and dimensions — published through an
// atomic pointer so /status and listings read it lock-free while a
// mutation batch advances it.
type graphIdent struct {
	fingerprint string
	epoch       int64
	lineage     string
	n           int32
	m           int64
}

// graphEntry is one catalog slot. The static fields (name, spec,
// specString, fingerprint) are immutable after the entry is published, so
// they are readable without any lock; the current identity lives in ident
// (lock-free reads); the residency fields (g, sampler) and the epoch
// chain (lineages) transition under mu: a graph comes in through
// loadLocked (or, for a batch, installLocked) and leaves through
// unloadLocked.
type graphEntry struct {
	name       string
	spec       cliutil.GraphSpec
	specString string // "" = not reloadable (graph handed to New without a spec)

	// fingerprint is the BASE (epoch-0) content hash, recorded at first
	// load and sticky across unload: a reload whose recomputed base
	// fingerprint differs (the file changed on disk) is refused. The
	// current epoch's fingerprint lives in ident.
	fingerprint string

	// ident is the entry's current identity; replaced wholesale when a
	// mutation batch lands.
	ident atomic.Pointer[graphIdent]

	// mu guards the residency transition (g/sampler nil ↔ non-nil) and
	// makes loadedRefs increments atomic with the load, so an unload
	// checking loadedRefs==0 under mu can never race a session acquiring
	// the sampler.
	mu      sync.Mutex
	g       *graph.Graph   // nil while unloaded
	sampler *rrset.Sampler // nil while unloaded

	// The epoch chain, guarded by mu: the lineages of consecutive epochs
	// ending at the current epoch's (lineages[0] == fingerprint while the
	// chain starts at epoch 0). A checkpoint resumes only from an epoch on
	// it. The batches themselves live in the journal.
	lineages []string

	// mutating serializes mutation batches: one at a time per graph. A
	// DELETE sets it for good, so no batch applies to a removed entry.
	mutating atomic.Bool

	isLoaded atomic.Bool // mirror of sampler != nil, for lock-free listing

	// sessions counts registered sessions naming this graph (loaded or
	// not); DELETE is refused while non-zero.
	sessions atomic.Int64
	// loadedRefs counts resident sessions using sampler; unload requires 0.
	loadedRefs atomic.Int64

	// lastTouch orders LRU unload; guarded by the server's gmu.
	lastTouch int64
}

// lookupGraph returns the entry (nil if unknown).
func (s *Server) lookupGraph(name string) *graphEntry {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return s.graphs[name]
}

// touchGraph marks e most-recently-used for LRU unload.
func (s *Server) touchGraph(e *graphEntry) {
	s.gmu.Lock()
	s.gtouchSeq++
	e.lastTouch = s.gtouchSeq
	s.gmu.Unlock()
}

// graphForSession resolves the graph a new session names and counts the
// session against it — under gmu, so a concurrent DELETE either misses the
// increment and 409s, or wins and the lookup 404s; a session can never be
// created on a graph that is mid-delete.
func (s *Server) graphForSession(name string) (*graphEntry, int, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	e := s.graphs[name]
	if e == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q (register it via POST /graphs)", name)
	}
	e.sessions.Add(1)
	return e, 0, nil
}

// acquireGraph returns e's shared sampler for a session about to become
// resident, reloading the graph (loadLocked) first when it was unloaded.
// The loadedRefs increment happens under e.mu, atomically with the load.
// Every successful acquire must be paired with a releaseGraph.
func (s *Server) acquireGraph(e *graphEntry) (*rrset.Sampler, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sampler == nil {
		if e.specString == "" {
			return nil, fmt.Errorf("graph %q was unloaded and has no spec to reload from", e.name)
		}
		if err := s.loadLocked(e); err != nil {
			return nil, err
		}
	}
	e.loadedRefs.Add(1)
	s.touchGraph(e)
	return e.sampler, nil
}

// current returns e's current sampler; callers hold a loadedRefs
// reference, so e is resident.
func (e *graphEntry) current() *rrset.Sampler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sampler
}

// releaseGraph undoes one acquireGraph (the session left memory).
func (s *Server) releaseGraph(e *graphEntry) {
	e.loadedRefs.Add(-1)
	s.touchGraph(e)
}

// loadLocked loads e from its spec and installs it: the base graph's
// fingerprint is recorded on the first load and must match on every
// reload (a dataset changed on disk is refused); then the mutation
// journal, left by a previous run or by this entry before an unload,
// replays the graph forward, and a reload must land exactly where the
// entry's chain ends. Callers hold e.mu, or own e before publication.
func (s *Server) loadLocked(e *graphEntry) error {
	t0 := time.Now()
	base, model, err := e.spec.Load()
	if err != nil {
		return fmt.Errorf("loading graph %q (%s): %w", e.name, e.specString, err)
	}
	reload := e.fingerprint != ""
	if !reload {
		e.fingerprint = base.Fingerprint()
	} else if fp := base.Fingerprint(); fp != e.fingerprint {
		return fmt.Errorf("graph %q changed on disk: spec %q now fingerprints %s, catalog recorded %s",
			e.name, e.specString, fp, e.fingerprint)
	}
	g, chain, err := replayMutationLog(s.cfg.CheckpointDir, e.name, base)
	if err != nil {
		return fmt.Errorf("loading graph %q (%s): %w", e.name, e.specString, err)
	}
	if head := e.lineages; reload && g.EpochLineage() != head[len(head)-1] {
		return fmt.Errorf("loading graph %q (%s): journal replays to epoch %d lineage %.12s, catalog is at lineage %.12s",
			e.name, e.specString, g.Epoch(), g.EpochLineage(), head[len(head)-1])
	}
	s.installLocked(e, g, rrset.NewSampler(g, model), chain)
	mGraphLoadTime.Observe(time.Since(t0))
	obs.Emit(s.cfg.Events, "graph_load", map[string]any{
		"graph":             e.name,
		"graph_fingerprint": e.fingerprint,
		"reload":            reload,
	})
	return nil
}

// unloadLocked drops resident e's graph and sampler. Callers hold e.mu,
// or own e before publication.
func (s *Server) unloadLocked(e *graphEntry) {
	t0 := time.Now()
	e.g, e.sampler = nil, nil
	e.isLoaded.Store(false)
	gGraphsLoaded.Set(float64(s.loadedGraphs.Add(-1)))
	mGraphUnloadTime.Observe(time.Since(t0))
	obs.Emit(s.cfg.Events, "graph_unload", map[string]any{
		"graph":             e.name,
		"graph_fingerprint": e.fingerprint,
	})
}

// installLocked makes g — served through sampler, at the end of the
// epoch chain — e's resident graph and publishes its identity; an entry
// that becomes resident counts toward MaxLoadedGraphs. Callers hold e.mu,
// or own e before publication.
func (s *Server) installLocked(e *graphEntry, g *graph.Graph, sampler *rrset.Sampler, chain []string) {
	if e.sampler == nil {
		gGraphsLoaded.Set(float64(s.loadedGraphs.Add(1)))
	}
	e.g, e.sampler, e.lineages = g, sampler, chain
	e.ident.Store(&graphIdent{
		fingerprint: g.Fingerprint(),
		epoch:       g.Epoch(),
		lineage:     g.EpochLineage(),
		n:           g.N(),
		m:           g.M(),
	})
	e.isLoaded.Store(true)
}

// registerGraph loads spec and publishes it under name. The returned
// status is the HTTP code for the failure (400 invalid, 409 name taken).
func (s *Server) registerGraph(name string, spec cliutil.GraphSpec) (*graphEntry, int, error) {
	if !sessionIDRe.MatchString(name) {
		return nil, http.StatusBadRequest,
			fmt.Errorf("graph name %q invalid (want [A-Za-z0-9][A-Za-z0-9._-]*, at most 64 chars)", name)
	}
	if err := spec.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Cheap duplicate check before the expensive load; the insert below
	// re-checks, so a racing duplicate registration still loses cleanly.
	if s.lookupGraph(name) != nil {
		return nil, http.StatusConflict, fmt.Errorf("graph %q already exists", name)
	}
	e := &graphEntry{name: name, spec: spec, specString: spec.String()}
	if err := s.loadLocked(e); err != nil { // unpublished: e is ours alone
		return nil, http.StatusBadRequest, err
	}
	s.gmu.Lock()
	if _, taken := s.graphs[name]; taken {
		s.gmu.Unlock()
		s.unloadLocked(e)
		return nil, http.StatusConflict, fmt.Errorf("graph %q already exists", name)
	}
	s.graphs[name] = e
	s.gtouchSeq++
	e.lastTouch = s.gtouchSeq
	s.gmu.Unlock()
	s.maybeUnloadGraphs(e)
	return e, 0, nil
}

// ensureGraph returns the registered entry for name, registering it from
// specString when absent — the adoption path for checkpoints whose graph
// the restarted daemon has not seen yet.
func (s *Server) ensureGraph(name, specString string) (*graphEntry, error) {
	if e := s.lookupGraph(name); e != nil {
		return e, nil
	}
	if specString == "" {
		return nil, fmt.Errorf("graph %q is not registered and the checkpoint records no spec to load it from", name)
	}
	spec, err := cliutil.ParseGraphSpec(specString)
	if err != nil {
		return nil, fmt.Errorf("graph %q: checkpoint records unusable spec: %w", name, err)
	}
	e, status, rerr := s.registerGraph(name, spec)
	if rerr != nil {
		if status == http.StatusConflict { // raced another adoption of the same graph
			if e := s.lookupGraph(name); e != nil {
				return e, nil
			}
		}
		return nil, rerr
	}
	return e, nil
}

// removeGraph unregisters name and drops its residency. The returned
// status is the HTTP failure code: 404 unknown, 409 while sessions
// reference it or a mutation batch applies to it. It takes the batch
// flag and never gives it back, so a batch that resolved the entry before
// the delete cannot journal onto the removed graph.
func (s *Server) removeGraph(name string) (int, error) {
	s.gmu.Lock()
	e := s.graphs[name]
	if e == nil {
		s.gmu.Unlock()
		return http.StatusNotFound, fmt.Errorf("unknown graph %q", name)
	}
	if n := e.sessions.Load(); n > 0 {
		s.gmu.Unlock()
		return http.StatusConflict, fmt.Errorf("graph %q is referenced by %d session(s); delete them first", name, n)
	}
	if !e.mutating.CompareAndSwap(false, true) {
		s.gmu.Unlock()
		return http.StatusConflict, fmt.Errorf("graph %q is applying a mutation batch; retry shortly", name)
	}
	delete(s.graphs, name)
	s.gmu.Unlock()
	e.mu.Lock()
	if e.sampler != nil {
		s.unloadLocked(e)
	}
	e.mu.Unlock()
	if s.cfg.CheckpointDir != "" {
		// The epoch chain dies with the graph: a future graph under the same
		// name starts a fresh journal instead of failing replay against this
		// one's base fingerprint. Compaction snapshots and the previous
		// journal generation go with it.
		os.Remove(MutationLogPath(s.cfg.CheckpointDir, name))                     //nolint:errcheck
		os.Remove(MutationLogPath(s.cfg.CheckpointDir, name) + fsutil.PrevSuffix) //nolint:errcheck
		for _, p := range graphSnapshotPaths(s.cfg.CheckpointDir, name) {
			os.Remove(p) //nolint:errcheck
		}
	}
	return 0, nil
}

// maybeUnloadGraphs enforces MaxLoadedGraphs: while too many graphs are
// resident it drops the least-recently-used idle one (zero loadedRefs,
// reloadable spec, never keep, and — without a journal to replay — never
// one past epoch 0). Unlike session eviction there is no disk write — the
// graph reloads from its spec and journal — so no evicting state is
// needed; a victim that gains a reference between pick and unload is
// simply skipped (shed).
func (s *Server) maybeUnloadGraphs(keep *graphEntry) {
	if s.cfg.MaxLoadedGraphs > 0 {
		shed(func(skip map[*graphEntry]bool) *graphEntry { return s.pickUnloadVictim(keep, skip) }, s.unloadGraph)
	}
}

func (s *Server) pickUnloadVictim(keep *graphEntry, skip map[*graphEntry]bool) *graphEntry {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if int(s.loadedGraphs.Load()) <= s.cfg.MaxLoadedGraphs {
		return nil
	}
	var victim *graphEntry
	for _, e := range s.graphs {
		if e == keep || skip[e] || e.specString == "" || !e.isLoaded.Load() || e.loadedRefs.Load() != 0 {
			continue
		}
		if s.cfg.CheckpointDir == "" && e.ident.Load().epoch > 0 {
			continue // no journal: the mutated content exists only in memory
		}
		if victim == nil || e.lastTouch < victim.lastTouch {
			victim = e
		}
	}
	return victim
}

// unloadGraph drops e's graph and sampler if it is still idle, reporting
// whether it is unloaded afterwards.
func (s *Server) unloadGraph(e *graphEntry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sampler != nil && e.loadedRefs.Load() == 0 {
		s.unloadLocked(e)
	}
	return e.sampler == nil
}

// CreateGraphRequest is the POST /graphs request body: a name plus a
// cliutil.GraphSpec, whose fields (path, profile, scale, weights, seed,
// model) inline verbatim into the JSON object.
type CreateGraphRequest struct {
	// Name registers the graph ([A-Za-z0-9][A-Za-z0-9._-]*, ≤ 64 chars).
	Name string `json:"name"`
	cliutil.GraphSpec
}

// GraphInfo describes one catalog entry in /graphs responses.
type GraphInfo struct {
	Name string `json:"name"`
	// Spec is the canonical GraphSpec string the graph (re)loads from;
	// empty when the graph was handed to the server without one.
	Spec string `json:"spec,omitempty"`
	// Fingerprint is the current epoch's content hash (graph.Fingerprint).
	Fingerprint string `json:"graph_fingerprint"`
	// Epoch counts applied mutation batches; Lineage is the epoch-chain
	// hash identifying this graph's exact mutation history.
	Epoch   int64  `json:"epoch"`
	Lineage string `json:"lineage"`
	N       int32  `json:"n"`
	M       int64  `json:"m"`
	// Loaded reports residency; an unloaded graph reloads transparently on
	// the next session touch.
	Loaded bool `json:"loaded"`
	// Sessions counts registered sessions on this graph; DELETE requires 0.
	Sessions int64 `json:"sessions"`
}

// GraphListResponse is the GET /graphs response body.
type GraphListResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

func graphInfo(e *graphEntry) GraphInfo {
	id := e.ident.Load()
	return GraphInfo{
		Name:        e.name,
		Spec:        e.specString,
		Fingerprint: id.fingerprint,
		Epoch:       id.epoch,
		Lineage:     id.lineage,
		N:           id.n,
		M:           id.m,
		Loaded:      e.isLoaded.Load(),
		Sessions:    e.sessions.Load(),
	}
}

// handleListGraphs is GET /graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	s.gmu.Lock()
	entries := make([]*graphEntry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.gmu.Unlock()
	resp := GraphListResponse{Graphs: make([]GraphInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Graphs = append(resp.Graphs, graphInfo(e))
	}
	sort.Slice(resp.Graphs, func(i, j int) bool { return resp.Graphs[i].Name < resp.Graphs[j].Name })
	writeJSON(w, resp)
}

// handleCreateGraph is POST /graphs.
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	var req CreateGraphRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	e, status, err := s.registerGraph(req.Name, req.GraphSpec)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, graphInfo(e))
}

// handleGetGraph is GET /graphs/{name}.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.lookupGraph(name)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	}
	writeJSON(w, graphInfo(e))
}

// handleDeleteGraph is DELETE /graphs/{name}: it unregisters the graph
// (409 while sessions reference it).
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if status, err := s.removeGraph(name); err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, map[string]string{"deleted": name})
}
