package server

// Feedback-loop coverage: the round/observation protocol end to end
// against internal/diffusion as the ground-truth world — rounds serve
// seeds, simulated cascades feed back, the posterior-mean edge error
// falls — plus the at-least-once delivery invariants (replayed rounds,
// duplicate observations) and a simulated SIGKILL mid-campaign that must
// resume from the OPIMS5 checkpoint with no acknowledged observation
// lost.

import (
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
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
// refused at session creation and by EnableLearning, which then leaves the
// session as it was.
func TestLearnSpecValidation(t *testing.T) {
	srv, ts := newTestServer(t, 4096)
	c := NewClient(ts.URL)
	if _, err := c.CreateSession(SessionSpec{ID: "bad", K: 2, Learn: &LearnSpec{RoundRR: -1}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("negative round_rr error = %v, want 400", err)
	}
	if _, err := c.CreateSession(SessionSpec{ID: "bad2", K: 2, Learn: &LearnSpec{RoundRR: 1 << 20}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("over-budget round_rr error = %v, want 400", err)
	}
	for _, rr := range []int{-1, 8192} {
		if err := srv.EnableLearning(DefaultSessionID, 1, rr); err == nil || !strings.Contains(err.Error(), "round_rr") {
			t.Fatalf("EnableLearning with round_rr %d: error %v, want one naming round_rr", rr, err)
		}
	}
	if _, err := c.Session(DefaultSessionID).StartRound(); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("rounds after refused EnableLearning: error %v, want 400 (not a learning session)", err)
	}
}

// slowGenerator delays every Generate by its duration, widening the time
// a round spends generating.
type slowGenerator time.Duration

func (d slowGenerator) Generate(c *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int) {
	time.Sleep(time.Duration(d))
	rrset.Generate(c, s, count, base, workers)
}

// TestConcurrentLearnersServeOwnRealization: two learning sessions on one
// graph run their rounds concurrently. A round holds its session lock from
// its realization to its seeds, so every round that applied a realization
// reports an epoch of its own, and its seeds and α are those of a fresh
// engine advanced to the round's RR count on that learner's own
// realization, never on the other learner's draw. A realization that
// meets the other learner's batch answers 409 and is retried.
func TestConcurrentLearnersServeOwnRealization(t *testing.T) {
	const learners, rounds, roundRR, worldSeed = 2, 12, 256, 99
	sampler := robustSampler(t)
	base := sampler.Graph()
	_, ts := newCkServer(t, sampler, Config{Batch: 500, Generator: slowGenerator(5 * time.Millisecond)})
	opts := func(l int) core.Options {
		return core.Options{K: 4, Delta: 0.05, Variant: core.Plus, Seed: uint64(30 + l)}
	}
	learnSeed := func(l int) uint64 { return uint64(50 + l) }

	served := make([][]RoundResponse, learners)
	observed := make([][][]learn.Attempt, learners)
	var wg sync.WaitGroup
	for l := 0; l < learners; l++ {
		id := fmt.Sprintf("learner-%d", l)
		o := opts(l)
		if _, err := NewClient(ts.URL).CreateSession(SessionSpec{
			ID: id, K: o.K, Delta: o.Delta, Seed: o.Seed,
			Learn: &LearnSpec{Seed: learnSeed(l), RoundRR: roundRR},
		}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(l int, c *Client) {
			defer wg.Done()
			truth := diffusion.NewSimulator(base)
			for len(served[l]) < rounds {
				r, err := c.StartRound()
				if err != nil && strings.Contains(err.Error(), "409") {
					time.Sleep(time.Millisecond) // the other learner's batch is applying
					continue
				}
				if err != nil {
					t.Errorf("learner %d: %v", l, err)
					return
				}
				_, atts := truth.RunICTrace(r.Seeds, rng.New(worldSeed).Split(uint64(r.Round)), nil)
				la := make([]learn.Attempt, len(atts))
				for i, a := range atts {
					la[i] = learn.Attempt{From: a.From, To: a.To, Success: a.Success}
				}
				if _, err := c.Observe(r.Round, la); err != nil {
					t.Errorf("learner %d round %d observation: %v", l, r.Round, err)
					return
				}
				served[l] = append(served[l], r)
				observed[l] = append(observed[l], la)
			}
		}(l, &Client{BaseURL: ts.URL, SessionID: id, MaxRetries: -1})
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	epochs := make(map[int64]string)
	for l := range served {
		for _, r := range served[l] {
			if r.Applied == 0 {
				continue
			}
			if other, dup := epochs[r.Epoch]; dup {
				t.Fatalf("%s round %d and %s both report epoch %d", r.Session, r.Round, other, r.Epoch)
			}
			epochs[r.Epoch] = fmt.Sprintf("%s round %d", r.Session, r.Round)
		}
	}
	// Replay each learner's campaign on the base graph: the realization of
	// round r depends only on the posterior, the learn seed and r.
	for l := range served {
		camp := learn.NewCampaign(base, learnSeed(l))
		for i, r := range served[l] {
			ms, _, err := camp.StartRound(base)
			if err != nil {
				t.Fatal(err)
			}
			realized := base
			if len(ms) > 0 {
				if realized, err = base.WithMutations(ms); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := core.NewOnline(rrset.NewSampler(realized, diffusion.IC), opts(l))
			if err != nil {
				t.Fatal(err)
			}
			ref.AdvanceTo(r.NumRR)
			want := ref.Snapshot()
			if !slices.Equal(r.Seeds, want.Seeds) || r.Alpha != want.Alpha {
				t.Fatalf("%s round %d (epoch %d) served seeds %v α %v; its own realization gives %v α %v",
					r.Session, r.Round, r.Epoch, r.Seeds, r.Alpha, want.Seeds, want.Alpha)
			}
			camp.ServeSeeds(r.Seeds)
			if _, err := camp.Observe(r.Round, observed[l][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// gateGenerator holds the first Generate until release is closed;
// entered is closed once it is held.
type gateGenerator struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *gateGenerator) Generate(c *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int) {
	g.once.Do(func() { close(g.entered); <-g.release })
	rrset.Generate(c, s, count, base, workers)
}

// TestSecondRoundWaitsForRunningRound: a rounds request that arrives while
// the session's first round is generating waits for that round, then
// replays it (same round, same seeds) instead of answering 409.
func TestSecondRoundWaitsForRunningRound(t *testing.T) {
	gate := &gateGenerator{entered: make(chan struct{}), release: make(chan struct{})}
	srv, ts := newCkServer(t, robustSampler(t), Config{Batch: 500, Generator: gate})
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // a failed test must not leave the first round holding its request
	if _, err := NewClient(ts.URL).CreateSession(SessionSpec{
		ID: "learner", K: 4, Delta: 0.05, Seed: 3, Learn: &LearnSpec{Seed: 8, RoundRR: 256},
	}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		r   RoundResponse
		err error
	}
	startRound := func(out chan<- result) {
		r, err := (&Client{BaseURL: ts.URL, SessionID: "learner", MaxRetries: -1}).StartRound()
		out <- result{r, err}
	}
	first, second := make(chan result, 1), make(chan result, 1)
	go startRound(first)
	<-gate.entered // the first round holds the session lock, mid-generation
	requests := srv.lookup("learner").mRequests
	before := requests.Value()
	go startRound(second)
	for requests.Value() == before { // the second request has reached its handler
		time.Sleep(time.Millisecond)
	}
	select {
	case res := <-second:
		t.Fatalf("second round answered (%+v, %v) while the first was running; want it to wait", res.r, res.err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	r1, r2 := <-first, <-second
	if r1.err != nil || r2.err != nil {
		t.Fatalf("first round: %v; second round: %v", r1.err, r2.err)
	}
	if r1.r.Replay || !r2.r.Replay || r2.r.Round != r1.r.Round || !slices.Equal(r2.r.Seeds, r1.r.Seeds) {
		t.Fatalf("second round = %+v, want a replay of the first %+v", r2.r, r1.r)
	}
}

// TestLearningGaugesPerSession: each learning session reports its own
// round phase and posterior entropy, and a restore publishes them again.
func TestLearningGaugesPerSession(t *testing.T) {
	dir := t.TempDir()
	sampler := robustSampler(t)
	_, ts := newCkServer(t, sampler, Config{Batch: 500, CheckpointDir: dir})
	c := NewClient(ts.URL)
	truth := diffusion.NewSimulator(sampler.Graph())
	for i, id := range []string{"gauge-a", "gauge-b"} {
		if _, err := c.CreateSession(SessionSpec{ID: id, K: 4, Delta: 0.05, Seed: uint64(i), Learn: &LearnSpec{Seed: uint64(4 + i), RoundRR: 256}}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := c.Session("gauge-a"), c.Session("gauge-b")
	if _, err := a.StartRound(); err != nil { // a awaits its observation
		t.Fatal(err)
	}
	rb, err := b.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	ob := observeRound(t, b, truth, rb, 5) // b is between rounds
	if ob.Entropy >= 0 {
		t.Fatalf("entropy after an observation = %v, want < 0", ob.Entropy)
	}
	names := func(id string) (phase, entropy string) {
		_, _, _, phase, entropy = sessionSeries(id)
		return phase, entropy
	}
	check := func(when string) {
		t.Helper()
		g := counters(t).Gauges
		for id, want := range map[string][2]float64{"gauge-a": {1, 0}, "gauge-b": {0, ob.Entropy}} {
			phase, entropy := names(id)
			if got, ok := g[phase]; !ok || got != want[0] {
				t.Fatalf("%s: %s = %v (present %v), want %v", when, phase, got, ok, want[0])
			}
			if got, ok := g[entropy]; !ok || got != want[1] {
				t.Fatalf("%s: %s = %v (present %v), want %v", when, entropy, got, ok, want[1])
			}
		}
	}
	check("after rounds")

	// A restarted process starts from an empty registry; restoring the
	// sessions publishes their gauges again.
	for _, id := range []string{"gauge-a", "gauge-b"} {
		phase, entropy := names(id)
		obs.Default().Delete(phase, entropy)
	}
	if _, _, err := restart(t, sampler, Config{Batch: 500, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	check("after a restore")
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
