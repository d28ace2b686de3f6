package main

import (
	"context"
	"os"
	"sync"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// serve-learn: feedback-driven learning sessions. Two closed-loop clients,
// each on its own catalog graph, run fixed-length campaigns: create a
// learning session, then per round {POST rounds, simulate the served seeds'
// cascade on the benchmark's ground-truth copy of the graph, POST
// observations}, then delete. Round cost grows with campaign length, so
// campaigns have a fixed number of rounds to keep the mix stationary. An
// operation is one round: the rounds plus observations latency, without
// the client-side simulation.
var learnWorkload = workload{
	name:  "serve-learn",
	setup: setupLearn,
}

type learnSizes struct {
	spec    cliutil.GraphSpec // Seed is replaced per client
	k       int
	roundRR int
	rounds  int
}

func learnSize(smoke bool) learnSizes {
	if smoke {
		return learnSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 6400, Model: "IC"}, 3, 128, 3}
	}
	// n=1,020, m≈18,400 per client graph.
	return learnSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 1600, Model: "IC"}, 10, 1024, 8}
}

const learnClients = 2

// learnRound is what one round served and observed, kept for the learning
// probe (traced pass only).
type learnRound struct {
	seeds    []int32
	applied  int
	attempts []learn.Attempt
	observed bool
}

type learnCampaign struct {
	seed   uint64 // the campaign's learn seed
	rounds []learnRound
}

type learnRun struct {
	p      params
	size   learnSizes
	d      *daemon
	truths [learnClients]*rrset.Sampler

	mu        sync.Mutex
	campaigns [learnClients][]learnCampaign
}

func learnGraphName(c int) string { return idOf("learn", c) }

func setupLearn(p params) (instance, error) {
	size := learnSize(p.smoke)
	dir, err := os.MkdirTemp(p.tmp, "learn-")
	if err != nil {
		return nil, err
	}
	lr := &learnRun{p: p, size: size}
	var specs [learnClients]cliutil.GraphSpec
	for c := range specs {
		specs[c] = size.spec
		specs[c].Seed = uint64(c + 1)
		if lr.truths[c], err = loadGraph(specs[c]); err != nil {
			return nil, err
		}
	}
	// opimd needs a default graph; the clients register their own.
	lr.d, err = startDaemon(lr.truths[0], specs[0], dir, p.tr)
	if err != nil {
		return nil, err
	}
	cl := lr.d.client(nil)
	defer cl.HTTPClient.CloseIdleConnections()
	for c, spec := range specs {
		if _, err := cl.CreateGraph(server.CreateGraphRequest{Name: learnGraphName(c), GraphSpec: spec}); err != nil {
			lr.d.close()
			return nil, err
		}
	}
	return lr, nil
}

func (lr *learnRun) run(r *runner, deadline time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < learnClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := lr.d.client(r.tr)
			defer cl.HTTPClient.CloseIdleConnections()
			truth := diffusion.NewSimulator(lr.truths[c].Graph())
			for j := 0; time.Now().Before(deadline); j++ {
				lr.campaign(r, cl, truth, c, j, deadline)
			}
		}(c)
	}
	wg.Wait()
}

func (lr *learnRun) campaign(r *runner, cl *server.Client, truth *diffusion.Simulator, c, j int, deadline time.Time) {
	id := idOf("learner", c, j)
	camp := learnCampaign{seed: subSeed(lr.p.seed, 3, uint64(c), uint64(j))}
	world := subSeed(lr.p.seed, 4, uint64(c), uint64(j))
	if _, err := r.call("http.sessions", func(ctx context.Context) error {
		_, err := cl.CreateSessionContext(ctx, server.SessionSpec{
			ID: id, Graph: learnGraphName(c), K: lr.size.k, Seed: subSeed(lr.p.seed, 5, uint64(c), uint64(j)),
			Learn: &server.LearnSpec{Seed: camp.seed, RoundRR: lr.size.roundRR},
		})
		return err
	}); err != nil {
		return
	}
	sc := cl.Session(id)
	var atts []diffusion.Attempt
	for i := 0; i < lr.size.rounds && time.Now().Before(deadline); i++ {
		var round server.RoundResponse
		d1, err := r.call("http.rounds", func(ctx context.Context) error {
			var err error
			round, err = sc.StartRoundContext(ctx)
			return err
		})
		if err != nil {
			break
		}
		_, atts = truth.RunICTrace(round.Seeds, rng.New(world).Split(uint64(round.Round)), atts[:0])
		la := make([]learn.Attempt, len(atts))
		for n, a := range atts {
			la[n] = learn.Attempt{From: a.From, To: a.To, Success: a.Success}
		}
		var ack server.ObservationResponse
		d2, err := r.call("http.observations", func(ctx context.Context) error {
			var err error
			ack, err = sc.ObserveContext(ctx, round.Round, la)
			return err
		})
		if r.tr != nil {
			camp.rounds = append(camp.rounds, learnRound{seeds: round.Seeds, applied: round.Applied, attempts: la, observed: err == nil})
		}
		if err != nil {
			break
		}
		if !ack.Applied {
			r.fail("client %d campaign %d round %d: observation not applied", c, j, round.Round)
		}
		r.op(d1 + d2)
	}
	lr.mu.Lock()
	lr.campaigns[c] = append(lr.campaigns[c], camp)
	lr.mu.Unlock()
	r.call("http.session", func(ctx context.Context) error { return cl.DeleteSessionContext(ctx, id) }) //nolint:errcheck // counted by r.call
}

// check: every observation must have been acknowledged as applied, which
// the run verifies as it goes.
func (lr *learnRun) check(*runner) {}

// probe replays each client's campaigns on a benchmark-held learn.Campaign
// fed the same served seeds and observed attempts, timing StartRound and
// Observe (the learning layer) and deriving every realization with
// WithMutations (the graph layer's weight-only path). The replayed
// realization sizes must match what the daemon applied.
func (lr *learnRun) probe(r *runner, l *ledger) {
	var starts, observes, derives []float64
	for c := 0; c < learnClients; c++ {
		cur := lr.truths[c].Graph()
		for j, camp := range lr.campaigns[c] {
			lc := learn.NewCampaign(cur, camp.seed)
			for i, rd := range camp.rounds {
				t0 := time.Now()
				ms, _, err := lc.StartRound(cur)
				t1 := time.Now()
				r.tr.add("probe.learn.start_round", 0, t0, t1)
				starts = append(starts, t1.Sub(t0).Seconds())
				if err != nil || len(ms) != rd.applied {
					r.fail("learning replay client %d campaign %d round %d: %d mutations (%v), daemon applied %d", c, j, i+1, len(ms), err, rd.applied)
					return
				}
				if len(ms) > 0 {
					var next *graph.Graph
					t0 = time.Now()
					next, err = cur.WithMutations(ms)
					t1 = time.Now()
					if err != nil {
						r.fail("deriving learning realization: %v", err)
						return
					}
					r.tr.add("probe.graph.derive", 0, t0, t1)
					derives = append(derives, t1.Sub(t0).Seconds())
					cur = next
				}
				if !rd.observed {
					break
				}
				lc.ServeSeeds(rd.seeds)
				t0 = time.Now()
				_, err = lc.Observe(int64(i+1), rd.attempts)
				t1 = time.Now()
				if err != nil {
					r.fail("learning replay observe: %v", err)
					return
				}
				r.tr.add("probe.learn.observe", 0, t0, t1)
				observes = append(observes, t1.Sub(t0).Seconds())
			}
		}
	}
	l.Probes["learn.start_round_ms"] = 1000 * ratio(sum(starts), float64(len(starts)))
	l.Probes["learn.observe_ms"] = 1000 * ratio(sum(observes), float64(len(observes)))
	l.Probes["graph.derive_ms.p50"] = 1000 * quantile(derives, 0.5)
	// A full campaign ends with rounds×round_rr RR sets, half in R1.
	probeMaxcover(r, l, lr.truths[0], lr.size.rounds*lr.size.roundRR/2, lr.size.k, lr.p.seed)
}

func (lr *learnRun) close() { lr.d.close() }
