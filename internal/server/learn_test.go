package server

// Feedback-loop coverage: the round/observation protocol end to end
// against internal/diffusion as the ground-truth world — rounds serve
// seeds, simulated cascades feed back, the posterior-mean edge error
// falls — plus the at-least-once delivery invariants (replayed rounds,
// duplicate observations) and a simulated SIGKILL mid-campaign that must
// resume from the OPIMS5 checkpoint with no acknowledged observation
// lost.

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/rng"
)

// observeRound simulates one real-world cascade of the round's seeds on
// the truth graph and submits the trace. The rng stream is keyed by the
// round so a replayed simulation is reproducible.
func observeRound(t *testing.T, c *Client, truth *diffusion.Simulator, r RoundResponse, worldSeed uint64) ObservationResponse {
	t.Helper()
	_, atts := truth.RunICTrace(r.Seeds, rng.New(worldSeed).Split(uint64(r.Round)), nil)
	la := make([]learn.Attempt, len(atts))
	for i, a := range atts {
		la[i] = learn.Attempt{From: a.From, To: a.To, Success: a.Success}
	}
	resp, err := c.Observe(r.Round, la)
	if err != nil {
		t.Fatalf("round %d observation: %v", r.Round, err)
	}
	return resp
}

// sessionMAE reads the session's posterior-mean absolute edge error
// against the true weights, under the session lock.
func sessionMAE(t *testing.T, srv *Server, id string, truth *graph.Graph) float64 {
	t.Helper()
	sess := srv.lookup(id)
	if sess == nil {
		t.Fatalf("session %q not found", id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.campaign == nil {
		t.Fatalf("session %q has no campaign", id)
	}
	mae, err := sess.campaign.Posterior().MeanAbsError(truth)
	if err != nil {
		t.Fatal(err)
	}
	return mae
}

func TestLearningSessionLifecycle(t *testing.T) {
	sampler := robustSampler(t)
	truth := diffusion.NewSimulator(sampler.Graph())
	srv, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: t.TempDir()})
	c := NewClient(ts.URL).Session(DefaultSessionID)

	if _, err := c.CreateSession(SessionSpec{
		ID: "learner", K: 4, Delta: 0.05, Seed: 21,
		Learn: &LearnSpec{Seed: 5, RoundRR: 512},
	}); err != nil {
		t.Fatal(err)
	}
	lc := c.Session("learner")

	// Round 1 explores: the Thompson realization differs from the true
	// weights almost surely, so it lands as a weight-only mutation epoch.
	r1, err := lc.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Round != 1 || r1.Kind != "explore" || r1.Replay {
		t.Fatalf("round 1 = %+v", r1)
	}
	if len(r1.Seeds) != 4 || r1.Applied == 0 || r1.Epoch == 0 || r1.NumRR != 512 || r1.Alpha <= 0 {
		t.Fatalf("round 1 = %+v: want 4 seeds, a non-empty realization, an advanced epoch, 512 RR sets and a guarantee", r1)
	}

	// A second rounds POST while the observation is outstanding replays
	// the same round and seeds instead of starting a new one.
	r1b, err := lc.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if !r1b.Replay || r1b.Round != 1 || r1b.Kind != r1.Kind {
		t.Fatalf("replayed round = %+v", r1b)
	}
	for i, s := range r1b.Seeds {
		if s != r1.Seeds[i] {
			t.Fatalf("replayed seeds %v differ from served seeds %v", r1b.Seeds, r1.Seeds)
		}
	}

	o1 := observeRound(t, lc, truth, r1, 77)
	if !o1.Applied || o1.Observations == 0 {
		t.Fatalf("observation 1 = %+v", o1)
	}
	// A duplicate delivery is acknowledged, not re-counted.
	o1d := observeRound(t, lc, truth, r1, 77)
	if o1d.Applied || o1d.Observations != o1.Observations {
		t.Fatalf("duplicate observation = %+v, first = %+v", o1d, o1)
	}
	// A round from the future is refused.
	if _, err := lc.Observe(9, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("future-round observation error = %v, want 400", err)
	}

	// Round 2 exploits (posterior mean). Free-form (round 0) observations
	// apply even while its window is open.
	r2, err := lc.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Round != 2 || r2.Kind != "exploit" || r2.Replay {
		t.Fatalf("round 2 = %+v", r2)
	}
	e := firstEdge(t, sampler.Graph())
	of, err := lc.Observe(0, []learn.Attempt{{From: e.From, To: e.To, Success: true}})
	if err != nil || !of.Applied || of.Observations != o1.Observations+1 {
		t.Fatalf("free-form observation = %+v (%v)", of, err)
	}
	// An attempt on a non-edge fails the whole batch.
	ifrom, ito := missingEdge(t, sampler.Graph())
	if _, err := lc.Observe(r2.Round, []learn.Attempt{{From: ifrom, To: ito}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown-edge observation error = %v, want 400", err)
	}
	observeRound(t, lc, truth, r2, 77)

	// Non-learning sessions refuse the protocol.
	if _, err := c.StartRound(); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("rounds on non-learning session error = %v, want 400", err)
	}
	if _, err := c.Observe(1, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("observations on non-learning session error = %v, want 400", err)
	}

	// The realizations ride the ordinary epoch chain: graph epoch advanced
	// once per applied realization, visible in the catalog.
	info, err := c.GetGraph(DefaultGraphName)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch < 1 {
		t.Fatalf("graph epoch = %d after realized rounds, want ≥ 1", info.Epoch)
	}
	_ = srv
}

// TestLearnSpecValidation: a negative or over-budget round RR budget is
// refused at session creation.
func TestLearnSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, 4096)
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "bad", K: 2, Learn: &LearnSpec{RoundRR: -1}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("negative round_rr error = %v, want 400", err)
	}
	if _, err := c.CreateSession(SessionSpec{ID: "bad2", K: 2, Learn: &LearnSpec{RoundRR: 1 << 20}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("over-budget round_rr error = %v, want 400", err)
	}
}

// TestLearningCampaignConvergesAndSurvivesKill is the end-to-end
// acceptance invariant: a campaign against internal/diffusion as the
// ground-truth world drives the posterior-mean edge error down, and a
// SIGKILL mid-campaign — including with a round's observation outstanding
// — resumes from the OPIMS5 checkpoint extension with no acknowledged
// observation lost and the open round replayed verbatim.
func TestLearningCampaignConvergesAndSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	const worldSeed = 1234

	sampler := robustSampler(t)
	truthG := sampler.Graph()
	truth := diffusion.NewSimulator(truthG)

	srv1 := New(robustSession(t, sampler), Config{Batch: 500, CheckpointDir: dir})
	if err := srv1.EnableLearning(DefaultSessionID, 5, 256); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := NewClient(ts1.URL).Session(DefaultSessionID)

	mae0 := sessionMAE(t, srv1, DefaultSessionID, truthG)

	var lastObservations int64
	for round := 1; round <= 6; round++ {
		r, err := c1.StartRound()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r.Round != int64(round) || r.Replay {
			t.Fatalf("round %d response = %+v", round, r)
		}
		o := observeRound(t, c1, truth, r, worldSeed)
		lastObservations = o.Observations
	}
	maeMid := sessionMAE(t, srv1, DefaultSessionID, truthG)
	if !(maeMid < mae0) {
		t.Fatalf("posterior-mean edge error did not fall: %.4f → %.4f after 6 rounds", mae0, maeMid)
	}

	// Round 7 is served but never observed — then the process dies. Only
	// the checkpoints and the mutation journal survive.
	r7, err := c1.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // simulated SIGKILL: no Shutdown, no final checkpoint

	// Restart the way opimd does: a fresh default session on a freshly
	// loaded base graph, New, Resume (which replays the journal), re-enable
	// learning (which must keep the restored campaign, not reset to the
	// uniform prior).
	srv2 := New(robustSession(t, robustSampler(t)), Config{Batch: 500, CheckpointDir: dir})
	if _, err := srv2.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.EnableLearning(DefaultSessionID, 5, 256); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		srv2.Stop()
		srv2.checkpointer.halt()
		ts2.Close()
	})
	c2 := NewClient(ts2.URL).Session(DefaultSessionID)

	// No acknowledged observation was lost, and the open round replays
	// with the seeds served before the kill.
	r7b, err := c2.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if !r7b.Replay || r7b.Round != r7.Round || r7b.Kind != r7.Kind {
		t.Fatalf("post-kill round = %+v, pre-kill = %+v: want a verbatim replay", r7b, r7)
	}
	for i, s := range r7b.Seeds {
		if s != r7.Seeds[i] {
			t.Fatalf("post-kill seeds %v differ from pre-kill %v", r7b.Seeds, r7.Seeds)
		}
	}
	o7 := observeRound(t, c2, truth, r7b, worldSeed)
	if !o7.Applied || o7.Observations <= lastObservations {
		t.Fatalf("post-kill observation = %+v: the restored posterior lost acknowledged observations (had %d)", o7, lastObservations)
	}

	for round := 8; round <= 14; round++ {
		r, err := c2.StartRound()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r.Round != int64(round) {
			t.Fatalf("round %d response = %+v: the restored campaign lost its round counter", round, r)
		}
		observeRound(t, c2, truth, r, worldSeed)
	}
	maeEnd := sessionMAE(t, srv2, DefaultSessionID, truthG)
	if !(maeEnd < maeMid) || !(maeEnd < mae0) {
		t.Fatalf("posterior-mean edge error not strictly decreasing across the kill: %.4f → %.4f → %.4f", mae0, maeMid, maeEnd)
	}
	if math.IsNaN(maeEnd) {
		t.Fatal("NaN error")
	}
}
