package server

// Crash-safe checkpointing: each session is periodically (and on
// shutdown, and on eviction) serialized through core.SaveSession — its
// recipe, a few hundred bytes plus the extension — onto an atomic write
// path (fsutil.WriteAtomic: tmp + fsync + rename, previous generation
// kept), and restore brings it back — at startup (Resume), and
// transparently when an evicted session is touched — falling back to the
// previous generation when the current one is corrupt. Restore
// regenerates the RR sets on the graph's current epoch, and because save →
// load → Advance is byte-identical to a never-paused session
// (core/persist.go), a daemon that crashes and resumes — or a session
// that is evicted and reloaded — serves exactly the answers (seeds, α,
// θ₁, θ₂, δ accounting) an uninterrupted one would have.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// DefaultCheckpointInterval is the checkpointer cadence when
// Config.CheckpointInterval is unset.
const DefaultCheckpointInterval = 30 * time.Second

// Checkpoint metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	mCkWrites     = obs.Default().Counter("server_checkpoint_writes_total")
	mCkFailures   = obs.Default().Counter("server_checkpoint_failures_total")
	mCkBytes      = obs.Default().Counter("server_checkpoint_bytes_total")
	mCkTime       = obs.Default().Timer("server_checkpoint_seconds")
	mCkRecoveries = obs.Default().Counter("server_checkpoint_recoveries_total")
)

// checkpointLocked atomically writes sess's recipe to its ckPath:
// core.SaveSession straight into fsutil.WriteAtomic, so a torn write can
// never clobber the last good generation. Callers hold sess.mu with the
// engine resident — every writer (POST checkpoint, the periodic
// checkpointer, the learning acknowledgements, eviction and Shutdown)
// goes through here, so the session lock serializes the writes to one
// path. ckEpoch is stored only after the rename: it never names an epoch
// newer than the checkpoint on disk. Without a checkpoint path durability
// is not configured and it writes nothing. Failures are logged, counted
// (server_checkpoint_failures_total) and reported to the event sink.
func (s *Server) checkpointLocked(sess *Session) (int64, error) {
	path := sess.ckPath
	if path == "" {
		return 0, nil
	}
	t0 := time.Now()
	n, err := fsutil.WriteAtomic(path, func(w io.Writer) error {
		if s.ckWrap != nil {
			w = s.ckWrap(w)
		}
		return core.SaveSession(w, sess.online)
	})
	mCkTime.Observe(time.Since(t0))
	if err != nil {
		mCkFailures.Inc()
		log.Printf("server: checkpoint write to %s failed: %v", path, err)
		obs.Emit(s.cfg.Events, "checkpoint_failure", map[string]any{
			"session": sess.ID,
			"path":    path,
			"error":   err.Error(),
		})
		return n, fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	sess.ckEpoch.Store(sess.online.Sampler().Graph().Epoch())
	mCkWrites.Inc()
	mCkBytes.Add(n)
	return n, nil
}

// checkpointResident checkpoints sess if its engine is resident — the
// periodic checkpointer's and Shutdown's write.
func (s *Server) checkpointResident(sess *Session) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.resident.Load() {
		return nil
	}
	_, err := s.checkpointLocked(sess)
	return err
}

// StartCheckpointer launches the periodic checkpoint goroutine at
// cfg.CheckpointInterval (DefaultCheckpointInterval when unset); each tick
// checkpoints every loaded session. It is a no-op without a CheckpointDir
// or when the checkpointer is already running; Shutdown stops it and waits
// for it to exit.
func (s *Server) StartCheckpointer() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	interval := s.cfg.CheckpointInterval
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	s.checkpointer.start(func(stop <-chan struct{}) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// Errors are already logged and counted per session;
				// the checkpointer keeps trying — a transiently full disk
				// must not end checkpointing forever.
				for _, sess := range s.snapshotSessions() {
					s.checkpointResident(sess)
				}
			}
		}
	})
}

// CheckpointResponse is the POST /checkpoint response body.
type CheckpointResponse struct {
	Session string `json:"session"`
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
	NumRR   int64  `json:"num_rr"`
}

// handleCheckpoint forces a checkpoint write now — the durability point a
// client can demand before it stops polling for a while. It writes the
// engine under the session lock — engine-touching work, so it pays a
// token like /advance does.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, sess *Session) {
	if sess.ckPath == "" {
		http.Error(w, "checkpointing not configured (start opimd with -checkpoint-dir)", http.StatusNotFound)
		return
	}
	var n int64
	if !s.serveEngine(w, r, sess, func(context.Context) (int, string) {
		var err error
		if n, err = s.checkpointLocked(sess); err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		return 0, ""
	}) {
		return
	}
	writeJSON(w, CheckpointResponse{
		Session: sess.ID,
		Path:    sess.ckPath,
		Bytes:   n,
		NumRR:   sess.statNumRR.Load(),
	})
}

// restore is the one way a checkpoint becomes a serving engine: Resume
// runs it for every registered session and every session it adopts from
// CheckpointDir, and lockEngine runs it to reload an evicted session.
// Callers hold sess.mu. In order:
//
//  1. read the current generation of sess.ckPath, falling back to .prev
//     when it is missing or corrupt (logged, and counted in
//     server_checkpoint_recoveries_total when the file existed);
//  2. take sess.graph — or, adopting (sess.graph nil), the catalog graph
//     the checkpoint names, registered from its recorded spec if needed;
//  3. check that the checkpoint's (epoch, lineage) lies on that graph's
//     epoch chain (onChain): off the chain is core.ErrGraphMismatch;
//  4. regenerate it on the graph's current sampler, whatever epoch it was
//     saved at;
//  5. publish an adopted session with the serving spec its extension
//     records, re-check the engine against the graph's current sampler
//     (catchUp: a batch may have landed during the load), and install
//     it through installEngineLocked, replacing any resident engine.
//
// On success the session is loaded and holds one loadedRefs reference on
// sess.graph. On failure nothing is installed (an adopted session that
// failed the re-check stays registered, unloaded, like an evicted one).
// When neither generation exists the error wraps fs.ErrNotExist — how
// Resume tells a first boot from a checkpoint it must refuse.
func (s *Server) restore(sess *Session) error {
	// Every registered session has a graph; only one being adopted has
	// none yet.
	adopt := sess.graph == nil
	var e *graphEntry
	var savedEpoch int64
	load := func(path string) (*core.Online, error) {
		e = nil
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		online, _, err := core.LoadSessionResolve(f, func(meta *core.SessionMeta) (*rrset.Sampler, error) {
			g := sess.graph
			if adopt {
				name := meta.GraphName
				if name == "" {
					name = DefaultGraphName
				}
				var err error
				if g, err = s.ensureGraph(name, meta.GraphSpec); err != nil {
					return nil, err
				}
			}
			if _, err := s.acquireGraph(g); err != nil {
				return nil, err
			}
			sampler, err := g.onChain(meta.Epoch, meta.Lineage)
			if err != nil {
				s.releaseGraph(g)
				return nil, err
			}
			e, savedEpoch = g, meta.Epoch
			return sampler, nil
		})
		if err != nil && e != nil {
			s.releaseGraph(e)
		}
		return online, err
	}
	// Load errors name the file and generation that failed — with many
	// graphs sharing one checkpoint dir, "which file, which generation" is
	// the difference between a findable mismatch and guesswork.
	path, prev := sess.ckPath, sess.ckPath+fsutil.PrevSuffix
	online, err := load(path)
	if err != nil {
		var prevErr error
		if online, prevErr = load(prev); prevErr != nil {
			switch {
			case os.IsNotExist(err) && os.IsNotExist(prevErr):
				return fmt.Errorf("server: no checkpoint at %s: %w", path, err)
			case os.IsNotExist(err):
				return fmt.Errorf("server: checkpoint unusable: current generation %s missing; previous generation %s: %w", path, prev, prevErr)
			}
			return fmt.Errorf("server: checkpoint unusable: current generation %s: %w; previous generation %s: %v", path, err, prev, prevErr)
		}
		if !os.IsNotExist(err) {
			// The current generation existed but was bad — a genuine
			// recovery, not a routine crash-between-renames window.
			mCkRecoveries.Inc()
		}
		log.Printf("server: checkpoint current generation %s unusable (%v); recovered from previous generation %s", path, err, prev)
	}
	online.SetEvents(s.cfg.Events)
	online.SetGenerator(s.cfg.Generator)
	if adopt {
		spec, _, err := splitExt(online.Extension())
		if err != nil {
			log.Printf("server: session %q: checkpoint extension unreadable (%v); adopting with server-default serving spec", sess.ID, err)
		}
		s.applySessionSpec(sess, spec)
		sess.graph = e
		e.sessions.Add(1)
		if err := s.addSession(sess); err != nil {
			sess.graph = nil
			e.sessions.Add(-1)
			s.releaseGraph(e)
			return err
		}
	}
	sess.ckEpoch.Store(savedEpoch)
	if resampled := s.catchUp(online, e); resampled || online.Sampler().Graph().Epoch() > savedEpoch {
		mSessionsCaughtUp.Inc()
		log.Printf("server: session %q checkpointed at epoch %d of graph %q restored onto epoch %d",
			sess.ID, savedEpoch, e.name, online.Sampler().Graph().Epoch())
	}
	s.installEngineLocked(sess, online)
	return nil
}
