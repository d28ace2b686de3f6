package server

// Dynamic graphs over HTTP: POST /graphs/{name}/updates applies one
// mutation batch (edge inserts/deletes, weight changes, node adds) to a
// catalog graph and incrementally repairs every loaded session on it —
// only the RR sets whose traces touch a mutated edge are regenerated
// (rrset.Repair). For a batch invalidating an f-fraction of θ sets,
// resampling costs O(f·θ) sets, not a full resample, plus one O(Σ|R|)
// memory-bound copy and index pass per collection in which a set changed.
//
// Identity moves along the graph's epoch chain: applying a batch advances
// the epoch and chains the lineage hash (graph.ChainFingerprint), the
// batch is journaled durably before the in-memory swap (mutlog.go), and
// session checkpoints record the epoch they were taken at. A checkpoint
// that resumes onto a later epoch must lie on the chain (onChain); it then
// regenerates on the current epoch directly — deliberate,
// loud-on-divergence rebasing instead of core.ErrGraphMismatch refusing
// every resume after the first edge insert. Memory keeps one lineage hash
// per epoch, never the batches.
//
// Concurrency: one batch at a time per graph (the `mutating` flag answers
// 409 to a second batch, and to a DELETE of the graph mid-batch). Session
// requests and the background sampler are not gated: the sweep repairs
// each session under its own lock, so a request waits at most for that
// one repair, and one served before the sweep reached its session answers
// for the previous epoch and labels it (SnapshotResponse.GraphEpoch). A
// learning round applies its realization while holding its own session's
// lock (learn.go); only the holder of the `mutating` flag ever takes a
// second session's lock, so the sweep cannot deadlock against it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// Mutation metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	mGraphMutations    = obs.Default().Counter("server_graph_mutations_total")
	mMutationConflicts = obs.Default().Counter("server_graph_mutation_conflicts_total")
	mSessionsRepaired  = obs.Default().Counter("server_sessions_repaired_total")
	mSessionsCaughtUp  = obs.Default().Counter("server_sessions_caught_up_total")
	mMutationTime      = obs.Default().Timer("server_graph_mutation_seconds")
	mJournalCompacts   = obs.Default().Counter("server_journal_compactions_total")
)

// GraphUpdate is one mutation op in wire form (docs/API.md): op is
// "edge_insert", "edge_delete", "set_weight" or "node_add"; from/to name
// the directed edge ⟨from,to⟩ and p its probability where the op uses
// them (node_add ignores all three).
type GraphUpdate struct {
	Op   string  `json:"op"`
	From int32   `json:"from,omitempty"`
	To   int32   `json:"to,omitempty"`
	P    float32 `json:"p,omitempty"`
}

// UpdateGraphRequest is the POST /graphs/{name}/updates request body: one
// all-or-nothing batch, applied in order.
type UpdateGraphRequest struct {
	Updates []GraphUpdate `json:"updates"`
}

// SessionRepair reports one session's incremental repair in an
// UpdateGraphResponse: Regenerated counts the RR sets the batch
// invalidated and the server resampled (across both OPIM-C halves).
type SessionRepair struct {
	Session     string `json:"session"`
	Regenerated int    `json:"regenerated"`
}

// UpdateGraphResponse is the POST /graphs/{name}/updates response body.
type UpdateGraphResponse struct {
	Graph string `json:"graph"`
	// Epoch and Lineage identify the graph's new position on its epoch
	// chain; Fingerprint is the new content hash.
	Epoch       int64  `json:"epoch"`
	Lineage     string `json:"lineage"`
	Fingerprint string `json:"graph_fingerprint"`
	N           int32  `json:"n"`
	M           int64  `json:"m"`
	// Applied is the number of ops in the batch.
	Applied int `json:"applied"`
	// Repaired lists the loaded sessions rebased onto the new epoch, with
	// their regenerated RR-set counts. Unloaded sessions regenerate on the
	// then-current epoch when next touched.
	Repaired []SessionRepair `json:"repaired,omitempty"`
}

// handleGraphUpdates is POST /graphs/{name}/updates.
func (s *Server) handleGraphUpdates(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.lookupGraph(name)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	}
	var req UpdateGraphRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ms, err := updatesToMutations(req.Updates)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(ms) == 0 {
		http.Error(w, "updates must contain at least one op", http.StatusBadRequest)
		return
	}
	resp, status, err := s.mutateGraph(e, ms, nil)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, *resp)
}

// mutateGraph applies one batch to e's graph: validate + derive the new
// epoch (WithMutations), journal it durably, swap the entry's residency,
// then sweep every loaded session on e: an engine on the batch's parent
// epoch is repaired with the batch, any other (one published between two
// sweeps, still further behind) resampled. held, when non-nil, is a
// session on e whose lock the caller holds (a learning round): the sweep
// repairs it without locking it. The returned status is the HTTP code for
// the failure.
func (s *Server) mutateGraph(e *graphEntry, ms []graph.Mutation, held *Session) (*UpdateGraphResponse, int, error) {
	if !e.mutating.CompareAndSwap(false, true) {
		if s.lookupGraph(e.name) != e { // a DELETE took the flag for good
			return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q", e.name)
		}
		mMutationConflicts.Inc()
		return nil, http.StatusConflict, fmt.Errorf("graph %q is already applying a mutation batch; retry shortly", e.name)
	}
	defer e.mutating.Store(false)
	t0 := time.Now()
	defer func() { mMutationTime.Observe(time.Since(t0)) }()

	// Pin the graph resident for the whole mutation (loading it from its
	// spec if the catalog had unloaded it).
	sampler, err := s.acquireGraph(e)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	defer s.releaseGraph(e)

	g := sampler.Graph()
	ng, err := g.WithMutations(ms)
	if err != nil {
		if errors.Is(err, graph.ErrInvalidMutation) {
			return nil, http.StatusBadRequest, err
		}
		return nil, http.StatusInternalServerError, err
	}

	// Write-ahead journal: the batch is durable before anything observes
	// it. A failure here applies nothing.
	var journalBytes int64
	if s.cfg.CheckpointDir != "" {
		entry := mutlogEntry{Epoch: ng.Epoch(), Lineage: ng.EpochLineage(), Updates: mutationsToUpdates(ms)}
		if journalBytes, err = appendMutationLog(s.cfg.CheckpointDir, e.name, e.fingerprint, entry); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}

	// Swap the entry onto the new epoch. Old readers (sessions not yet
	// repaired, in-flight traversals) keep the old graph alive; they are
	// rebased below.
	newSampler := rrset.NewSampler(ng, sampler.Model())
	e.mu.Lock()
	s.installLocked(e, ng, newSampler, append(e.lineages, ng.EpochLineage()))
	e.mu.Unlock()
	mGraphMutations.Inc()

	// Rebase every loaded session on this graph. Each repair holds only
	// that session's mutex (held's is the caller's); sessions on other
	// graphs are untouched. A session published after this snapshot of the
	// table is caught by the catchUp re-check in createSession and restore.
	// Only an engine on the parent sampler may take this batch alone; one
	// that missed an earlier batch too resamples.
	var repaired []SessionRepair
	for _, sess := range s.snapshotSessions() {
		if sess.graph != e {
			continue
		}
		if sess != held {
			sess.mu.Lock()
		}
		if sess.online != nil && sess.online.Sampler() != newSampler {
			var regen int
			if sess.online.Sampler() == sampler {
				regen = sess.online.RepairForMutations(newSampler, ms)
			} else {
				sess.online.Resample(newSampler)
				regen = int(sess.online.NumRR())
			}
			sess.refreshStatsLocked()
			repaired = append(repaired, SessionRepair{Session: sess.ID, Regenerated: regen})
			mSessionsRepaired.Inc()
		}
		if sess != held {
			sess.mu.Unlock()
		}
	}

	obs.Emit(s.cfg.Events, "graph_mutation", map[string]any{
		"graph":             e.name,
		"epoch":             ng.Epoch(),
		"lineage":           ng.EpochLineage(),
		"graph_fingerprint": ng.Fingerprint(),
		"ops":               len(ms),
		"sessions_repaired": len(repaired),
	})
	// Still inside the e.mutating critical section, so no concurrent
	// append can interleave with the journal rewrite.
	if journalBytes > graph.CSRSize(ng) {
		s.compactJournal(e, ng, journalBytes)
	}
	return &UpdateGraphResponse{
		Graph:       e.name,
		Epoch:       ng.Epoch(),
		Lineage:     ng.EpochLineage(),
		Fingerprint: ng.Fingerprint(),
		N:           ng.N(),
		M:           ng.M(),
		Applied:     len(ms),
		Repaired:    repaired,
	}, 0, nil
}

// compactJournal compacts e's mutation journal, which a batch just left
// larger than ng's OPIMG2 encoding: snapshot ng, rewrite the journal to
// start from it, and truncate the in-memory chain to match. The chain
// keeps every epoch from the oldest checkpoint any session on e has on
// disk (ckEpoch), so no checkpoint leaves it. It runs after the batch's
// repair sweep, which took every session's lock on e (or, for a round's
// held session, ran under it): a checkpoint write that began before the
// batch has stored its epoch, and every later write serializes an engine
// the sweep moved to ng, whose epoch the chain always keeps. A write
// stores its epoch only after its rename, so a read racing one sees an
// older epoch and keeps more of the chain, never less. Called from
// mutateGraph while e.mutating is held, so no batch can append
// concurrently. A failure only logs: the journal keeps its full history
// and the next batch retries.
func (s *Server) compactJournal(e *graphEntry, ng *graph.Graph, journalBytes int64) {
	oldest := ng.Epoch()
	for _, sess := range s.snapshotSessions() {
		if ck := sess.ckEpoch.Load(); sess.graph == e && ck >= 0 && ck < oldest {
			oldest = ck
		}
	}
	e.mu.Lock()
	kept := e.lineages[max(0, len(e.lineages)-1-int(ng.Epoch()-oldest)):]
	e.mu.Unlock()
	if err := compactMutationLog(s.cfg.CheckpointDir, e.name, e.fingerprint, ng, kept[:len(kept)-1]); err != nil {
		log.Printf("server: compacting mutation journal for graph %q: %v (history kept; next batch retries)", e.name, err)
		return
	}
	e.mu.Lock()
	e.lineages = slices.Clone(kept)
	e.mu.Unlock()
	mJournalCompacts.Inc()
	obs.Emit(s.cfg.Events, "journal_compaction", map[string]any{
		"graph":             e.name,
		"epoch":             ng.Epoch(),
		"lineage":           ng.EpochLineage(),
		"graph_fingerprint": ng.Fingerprint(),
		"journal_bytes":     journalBytes,
	})
	log.Printf("server: compacted graph %q's %d-byte mutation journal at epoch %d (chain kept from epoch %d)", e.name, journalBytes, ng.Epoch(), oldest)
}

// onChain checks that the graph state (epoch, lineage) lies on e's epoch
// chain and returns e's current sampler. A position off the chain is
// core.ErrGraphMismatch: before its first epoch (compacted away: a stray
// copy of a checkpoint, or a .prev generation older than the kept chain)
// or past its head, or a lineage from a different history — regenerating
// a session recorded on an unrelated graph would be silent corruption.
// Callers hold a loadedRefs reference, so e is resident.
func (e *graphEntry) onChain(epoch int64, lineage string) (*rrset.Sampler, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	head := e.g.Epoch()
	first := head - int64(len(e.lineages)) + 1
	if epoch < first || epoch > head {
		return nil, fmt.Errorf("%w: epoch %d of graph %q is outside the journaled chain [%d, %d] (mutation journal compacted past it, truncated or missing?)",
			core.ErrGraphMismatch, epoch, e.name, first, head)
	}
	idx := epoch - first
	if e.lineages[idx] != lineage {
		return nil, fmt.Errorf("%w: graph %q lineage %.12s at epoch %d is not on this graph's epoch chain (%.12s): it descends from a different history",
			core.ErrGraphMismatch, e.name, lineage, epoch, e.lineages[idx])
	}
	return e.sampler, nil
}

// catchUp resamples o — an engine on graph e, not yet visible to e's
// mutation sweeps — onto e's current sampler when a batch landed since o's
// sampler was taken, and reports whether it did; otherwise it is a pointer
// compare. It closes the window between taking a sampler and publishing
// the engine, in which a batch's sweep misses the session.
func (s *Server) catchUp(o *core.Online, e *graphEntry) bool {
	cur := e.current()
	if cur == o.Sampler() {
		return false
	}
	o.Resample(cur)
	return true
}
