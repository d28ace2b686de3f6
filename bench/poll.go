package main

import (
	"context"
	"slices"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// serve-poll: online processing as an opimd client uses it. One
// closed-loop client runs sessions one after another: create, then repeat
// {advance, snapshot} until α reaches the target, then delete. An
// operation is one {advance, snapshot} step — the client's pause-and-read.
//
// One client, not two: on two CPUs, two clients whose advances each
// sample on every CPU settle into run-dependent phase patterns — the same
// seed's step p50 ranged from 24 to 31 ms over four runs, against 26–27 ms
// with one client.
var pollWorkload = workload{
	name:  "serve-poll",
	setup: setupPoll,
}

type pollSizes struct {
	spec    cliutil.GraphSpec
	k       int
	advance int
	target  float64
}

func pollSize(smoke bool) pollSizes {
	if smoke {
		return pollSizes{cliutil.GraphSpec{Profile: "synth-livejournal", Scale: 20000, Seed: 1, Model: "LT"}, 5, 512, 0.5}
	}
	// n=24,237, m=339,244: sessions need 5–8 steps; a step's latency is
	// nearly flat after the first, so its quantiles do not jump between
	// step counts.
	return pollSizes{cliutil.GraphSpec{Profile: "synth-livejournal", Scale: 200, Seed: 1, Model: "LT"}, 50, 16384, 0.7}
}

// pollStep is what one step's snapshot returned.
type pollStep struct {
	alpha float64
	seeds []int32
}

type pollRun struct {
	p       params
	size    pollSizes
	sampler *rrset.Sampler
	d       *daemon

	first     []pollStep // session 0, step by step
	firstSeed uint64
	theta1    int64     // θ1 of session 0 at the target
	sessions  int       // counted sessions (see countedOps) that reached the target
	steps     int       // their steps
	rr        int64     // their RR sets at the target
	ttaS      []float64 // time from create to the first snapshot at the target
}

func setupPoll(p params) (instance, error) {
	size := pollSize(p.smoke)
	s, err := loadGraph(size.spec)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(s, size.spec, "", p.tr)
	if err != nil {
		return nil, err
	}
	return &pollRun{p: p, size: size, sampler: s, d: d}, nil
}

func (pr *pollRun) run(r *runner, deadline time.Time) {
	cl := pr.d.client(r.tr)
	defer cl.HTTPClient.CloseIdleConnections()
	for j := 0; time.Now().Before(deadline); j++ {
		pr.session(r, cl, j, deadline)
	}
}

// session runs session j until α reaches the target or the run ends.
func (pr *pollRun) session(r *runner, cl *server.Client, j int, deadline time.Time) {
	id := idOf("poll", j)
	seed := subSeed(pr.p.seed, uint64(j))
	created := time.Now()
	if _, err := r.call("http.sessions", func(ctx context.Context) error {
		_, err := cl.CreateSessionContext(ctx, server.SessionSpec{ID: id, K: pr.size.k, Seed: seed})
		return err
	}); err != nil {
		return
	}
	sc := cl.Session(id)
	var steps []pollStep
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if _, err := r.call("http.advance", func(ctx context.Context) error {
			_, err := sc.AdvanceContext(ctx, pr.size.advance)
			return err
		}); err != nil {
			break
		}
		var snap server.SnapshotResponse
		if _, err := r.call("http.snapshot", func(ctx context.Context) error {
			var err error
			snap, err = sc.SnapshotContext(ctx)
			return err
		}); err != nil {
			break
		}
		r.op(time.Since(t0))
		if j == 0 {
			steps = append(steps, pollStep{snap.Alpha, snap.Seeds})
		}
		if snap.Alpha >= pr.size.target {
			pr.ttaS = append(pr.ttaS, time.Since(created).Seconds())
			if j < countedOps {
				pr.sessions++
				pr.steps += int(snap.Theta1+snap.Theta2) / pr.size.advance
				pr.rr += snap.Theta1 + snap.Theta2
			}
			if j == 0 {
				pr.theta1 = snap.Theta1
			}
			break
		}
	}
	if j == 0 {
		pr.first, pr.firstSeed = steps, seed
	}
	r.call("http.session", func(ctx context.Context) error { return cl.DeleteSessionContext(ctx, id) }) //nolint:errcheck // counted by r.call
}

// check replays session 0 through core.NewOnline with the same options
// and advance sequence: every step's seeds and α must be bit-identical to
// what the daemon served.
func (pr *pollRun) check(r *runner) {
	o, err := core.NewOnline(pr.sampler, core.Options{
		K: pr.size.k, Delta: 1 / float64(pr.sampler.Graph().N()), Variant: core.Plus, Seed: pr.firstSeed,
	})
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	for i, st := range pr.first {
		o.Advance(pr.size.advance)
		snap := o.Snapshot()
		if snap.Alpha != st.alpha || !slices.Equal(snap.Seeds, st.seeds) {
			r.fail("session 0 step %d: daemon α=%v, replay α=%v", i, st.alpha, snap.Alpha)
			return
		}
	}
}

func (pr *pollRun) probe(r *runner, l *ledger) {
	if pr.sessions == 0 {
		return
	}
	l.Probes["core.rounds_per_solve"] = float64(pr.steps) / float64(pr.sessions)
	l.Probes["core.rr_per_solve"] = float64(pr.rr) / float64(pr.sessions)
	l.Probes["time_to_alpha_s.p50"] = quantile(pr.ttaS, 0.5)
	l.Probes["time_to_alpha_s.p90"] = quantile(pr.ttaS, 0.9)
	probeMaxcover(r, l, pr.sampler, int(pr.theta1), pr.size.k, pr.firstSeed)
}

func (pr *pollRun) close() { pr.d.close() }
