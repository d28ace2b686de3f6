package server

// Feedback-driven learning sessions: the server closes the online-IM
// loop over HTTP. A learning session (SessionSpec.Learn) treats its
// graph's edge weights as unknown and runs the round protocol of
// learn.Campaign:
//
//	POST /sessions/{id}/rounds        sample the round's realization
//	                                  (Thompson explore / posterior-mean
//	                                  exploit), apply it as an ordinary
//	                                  weight-only mutation epoch, generate
//	                                  RR sets, derive and serve seeds
//	POST /sessions/{id}/observations  feed back the observed cascade's
//	                                  activation attempts; the posterior
//	                                  updates and the round closes
//
// Durability: the campaign's serialized state rides inside the engine's
// OPIMS6 extension blob, and both endpoints checkpoint synchronously,
// under the session lock, before acknowledging, so a kill −9 at any
// instant loses no acknowledged observation. The protocol is replay-safe
// end to end: a round retried after a crash re-derives the same
// realization (absolute target weights + a per-round RNG stream → an
// empty diff against the already-applied epoch), a rounds request while
// seeds are outstanding returns the stored seeds, and an observation for
// an already-closed round is acknowledged as a duplicate without touching
// the posterior (at-least-once delivery).
//
// Concurrency: a round is one critical section under the session lock,
// from StartRound through the realization's batch, whose sweep repairs
// this session without re-locking it, and the generation to the
// checkpoint of the served seeds. The seeds are therefore sampled on the
// round's own realization even while other learners share the graph. A
// realization that meets another batch on the graph answers that batch's
// 409 and rolls the campaign back: waiting for the batch under the lock
// would deadlock against its sweep.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/obs"
)

// defaultRoundRR is the per-round RR generation budget when the session
// spec does not set one: enough for a stable seed set on mid-sized graphs
// while keeping rounds fast (a campaign runs many of them).
const defaultRoundRR = 1024

// RoundResponse is the POST /sessions/{id}/rounds response body.
type RoundResponse struct {
	Session string `json:"session"`
	// Round numbers rounds from 1; observations quote it back.
	Round int64 `json:"round"`
	// Kind is "explore" (Thompson-sampled realization) or "exploit"
	// (posterior-mean realization).
	Kind string `json:"kind"`
	// Seeds is the seed set to run the real-world campaign with.
	Seeds []int32 `json:"seeds"`
	// Alpha is the approximation guarantee of Seeds on the realization
	// (0 on a replayed response — re-deriving it would spend δ budget).
	Alpha float64 `json:"alpha"`
	// Applied counts the weight mutations the realization needed (0 when
	// the graph already realized the round — e.g. a crash-retry).
	Applied int `json:"applied"`
	// Epoch is the graph epoch of the session's RR sets: for a new round,
	// the epoch its seeds were sampled on (the round's realization, or the
	// current epoch when the graph already realized it); for a replay, the
	// epoch the session is on now.
	Epoch int64 `json:"epoch"`
	// NumRR is the session's RR-set count after the round's generation.
	NumRR int64 `json:"num_rr"`
	// Replay is true when this response re-serves the seeds of a round
	// whose observation is still outstanding, rather than starting a new
	// round.
	Replay bool `json:"replay,omitempty"`
}

// ObservationRequest is the POST /sessions/{id}/observations body. Round
// ties the trace to the round whose seeds generated it; round 0 submits a
// free-form observation (a cascade observed outside the round protocol),
// which always applies.
type ObservationRequest struct {
	Round    int64           `json:"round"`
	Attempts []learn.Attempt `json:"attempts"`
}

// ObservationResponse is the POST /sessions/{id}/observations response.
type ObservationResponse struct {
	Session  string `json:"session"`
	Round    int64  `json:"round"`
	Attempts int    `json:"attempts"`
	// Applied is false for a duplicate delivery (the round was already
	// closed); the posterior was not touched.
	Applied bool `json:"applied"`
	// Observations is the posterior's total Bernoulli-outcome count.
	Observations int64 `json:"observations"`
	// Entropy is the mean per-edge posterior entropy (0 = uniform prior,
	// decreasing as the campaign learns).
	Entropy float64 `json:"entropy"`
}

// restoreCampaignLocked rolls the session's campaign back to a state
// captured with MarshalBinary — the in-process analogue of a crash-retry,
// used when a round fails downstream of StartRound so the client's retry
// re-derives the same round instead of skipping one, and when an
// observation's checkpoint fails. Callers hold sess.mu with the engine
// resident.
func (sess *Session) restoreCampaignLocked(prev []byte) {
	c, err := learn.UnmarshalCampaign(prev, sess.online.Sampler().Graph())
	if err != nil {
		panic(fmt.Sprintf("server: restoring learner state for session %q: %v", sess.ID, err))
	}
	sess.campaign = c
	sess.syncExtLocked()
}

// handleRounds is POST /sessions/{id}/rounds: start the next
// explore/exploit round (or re-serve the current one's seeds while its
// observation is outstanding). The round holds the session lock from its
// realization to its durable seeds, so a second rounds request waits for
// it and then replays it, and no other learner's batch can land between
// this round's realization and its seeds.
func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request, sess *Session) {
	var resp RoundResponse
	if !s.serveEngine(w, r, sess, func(ctx context.Context) (int, string) { return s.roundLocked(ctx, sess, &resp) }) {
		return
	}
	if !resp.Replay {
		obs.Emit(s.cfg.Events, "learn_round", map[string]any{
			"session": sess.ID,
			"round":   resp.Round,
			"kind":    resp.Kind,
			"explore": resp.Kind == "explore",
			"applied": resp.Applied,
			"epoch":   resp.Epoch,
			"seeds":   len(resp.Seeds),
		})
	}
	writeJSON(w, resp)
}

// roundLocked is handleRounds' critical section, filling resp; callers
// hold sess.mu with the engine resident. It returns 0 or the HTTP status
// and message of the failure.
func (s *Server) roundLocked(ctx context.Context, sess *Session, resp *RoundResponse) (int, string) {
	if sess.campaign == nil {
		return http.StatusBadRequest, fmt.Sprintf("session %q is not a learning session (create it with a learn spec)", sess.ID)
	}
	if sess.campaign.Awaiting() {
		// The current round's observation is outstanding: re-serve its
		// seeds (at-least-once delivery of the round itself). The
		// checkpoint below re-establishes durability for a client retrying
		// precisely because the previous attempt's checkpoint failed.
		*resp = s.roundResponseLocked(sess, 0, true)
	} else {
		prev, err := sess.campaign.MarshalBinary()
		if err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		ms, _, err := sess.campaign.StartRound(sess.online.Sampler().Graph())
		if err != nil {
			return http.StatusInternalServerError, fmt.Sprintf("starting round: %v", err)
		}
		// Apply the realization as an ordinary weight-only mutation epoch:
		// journaled, visible to every session on the graph, and swept
		// through incremental repair, this session included. An empty batch
		// means the graph already realizes this round. Then refine the
		// realization's RR sets before deriving seeds: partial progress on
		// failure is harmless (RR sets are valid at any count), but the
		// round itself must be retried from StartRound.
		if len(ms) > 0 {
			if _, status, err := s.mutateGraph(sess.graph, ms, sess); err != nil {
				sess.restoreCampaignLocked(prev)
				return status, fmt.Sprintf("applying round realization: %v", err)
			}
		}
		if status, msg := s.advanceLocked(ctx, sess, cmp.Or(sess.spec.RoundRR, defaultRoundRR)); status != 0 {
			sess.restoreCampaignLocked(prev)
			return status, msg
		}
		snap := sess.online.Snapshot()
		sess.campaign.ServeSeeds(snap.Seeds)
		sess.syncExtLocked()
		s.setLearnGaugesLocked(sess)
		*resp = s.roundResponseLocked(sess, len(ms), false)
		resp.Alpha = snap.Alpha
	}
	// Seeds leave the server only after the awaiting round is durable: a
	// kill −9 after this write resumes with the window open and the same
	// stored seeds.
	if _, err := s.checkpointLocked(sess); err != nil {
		return http.StatusInternalServerError, fmt.Sprintf("round state not durable: %v; retry", err)
	}
	return 0, ""
}

// roundResponseLocked assembles the rounds response from the campaign's
// current state; callers hold sess.mu with the engine resident and
// campaign non-nil.
func (s *Server) roundResponseLocked(sess *Session, applied int, replay bool) RoundResponse {
	kind := "exploit"
	if sess.campaign.Explore() {
		kind = "explore"
	}
	return RoundResponse{
		Session: sess.ID,
		Round:   sess.campaign.Round(),
		Kind:    kind,
		Seeds:   sess.campaign.Seeds(),
		Applied: applied,
		Epoch:   sess.online.Sampler().Graph().Epoch(),
		NumRR:   sess.online.NumRR(),
		Replay:  replay,
	}
}

// handleObservations is POST /sessions/{id}/observations: fold an
// observed cascade's activation attempts into the session's posterior.
// The acknowledgement is durable: the posterior is checkpointed before
// the 200 leaves, and a failed checkpoint rolls the in-memory update back
// so the client's retry re-applies it — an acked observation can never be
// lost to a crash, and an unacked one is never double-counted.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req ObservationRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 32<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var resp ObservationResponse
	if !s.serveEngine(w, r, sess, func(context.Context) (int, string) { return s.observeLocked(sess, req, &resp) }) {
		return
	}
	if resp.Applied {
		obs.Emit(s.cfg.Events, "learn_observation", map[string]any{
			"session":  sess.ID,
			"round":    req.Round,
			"attempts": len(req.Attempts),
			"entropy":  resp.Entropy,
		})
	}
	writeJSON(w, resp)
}

// observeLocked is handleObservations' critical section, filling resp;
// callers hold sess.mu with the engine resident. It returns 0 or the HTTP
// status and message of the failure.
func (s *Server) observeLocked(sess *Session, req ObservationRequest, resp *ObservationResponse) (int, string) {
	*resp = ObservationResponse{Session: sess.ID, Round: req.Round, Attempts: len(req.Attempts)}
	if sess.campaign == nil {
		return http.StatusBadRequest, fmt.Sprintf("session %q is not a learning session (create it with a learn spec)", sess.ID)
	}
	prev, err := sess.campaign.MarshalBinary()
	if err != nil {
		return http.StatusInternalServerError, err.Error()
	}
	if resp.Applied, err = sess.campaign.Observe(req.Round, req.Attempts); err != nil {
		return http.StatusBadRequest, err.Error()
	}
	if resp.Applied {
		sess.syncExtLocked()
		if _, err := s.checkpointLocked(sess); err != nil {
			sess.restoreCampaignLocked(prev)
			return http.StatusInternalServerError, fmt.Sprintf("observation not durable: %v; retry (it was not applied)", err)
		}
		s.setLearnGaugesLocked(sess)
	}
	resp.Observations, resp.Entropy = sess.campaign.Posterior().Observations(), sess.campaign.Entropy()
	return 0, ""
}

// EnableLearning turns an existing session into a learning session — the
// startup path for opimd's -learn flag on the default session. A campaign
// already restored from the session's checkpoint extension is kept (the
// resume case); otherwise a fresh uniform-prior campaign is created with
// the given seed. roundRR configures the per-round RR budget (0 = the
// server default) and must lie in [0, max_rr], as at POST /sessions.
func (s *Server) EnableLearning(id string, seed uint64, roundRR int) error {
	sess := s.lookup(id)
	if sess == nil {
		return fmt.Errorf("server: unknown session %q", id)
	}
	if err := checkRoundRR(roundRR, sess.maxRR); err != nil {
		return fmt.Errorf("server: session %q: %w", id, err)
	}
	if status, msg := s.lockEngine(sess); status != 0 {
		return fmt.Errorf("server: session %q: %s", id, msg)
	}
	defer sess.mu.Unlock()
	sess.spec.RoundRR = roundRR
	if sess.campaign == nil { // else restored from the checkpoint; keep the learned posterior
		sess.campaign = learn.NewCampaign(sess.online.Sampler().Graph(), seed)
	}
	sess.syncExtLocked()
	s.setLearnGaugesLocked(sess)
	return nil
}

// checkRoundRR refuses a learning round budget outside [0, maxRR]: a
// round could never generate it (POST /sessions and EnableLearning).
func checkRoundRR(roundRR int, maxRR int64) error {
	if roundRR < 0 || int64(roundRR) > maxRR {
		return fmt.Errorf("learn.round_rr %d outside [0, max_rr %d]", roundRR, maxRR)
	}
	return nil
}

// setLearnGaugesLocked publishes sess's campaign in its labeled
// learn_round_phase (1 while served seeds await their observation, else 0)
// and learn_posterior_entropy gauges. Like the session's other series they
// are created under smu, and only while sess is registered: removeSession
// deletes them under smu, so a deleted session's gauges never reappear.
// A session without a campaign has none. Callers hold sess.mu.
func (s *Server) setLearnGaugesLocked(sess *Session) {
	if sess.campaign == nil {
		return
	}
	var phase float64
	if sess.campaign.Awaiting() {
		phase = 1
	}
	_, _, _, phaseName, entropyName := sessionSeries(sess.ID)
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.sessions[sess.ID] == sess {
		obs.Default().Gauge(phaseName).Set(phase)
		obs.Default().Gauge(entropyName).Set(sess.campaign.Entropy())
	}
}
