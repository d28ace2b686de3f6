package main

import (
	"context"
	"slices"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rrset"
)

// opimc: sequential core.Maximize solves (OPIM-C, Algorithm 2) on one
// fixed graph, each with its own seed. No server, mutation, checkpoint or
// learning code runs, so a change to those layers must leave it flat.
var opimcWorkload = workload{
	name:  "opimc",
	setup: setupOPIMC,
}

type opimcSizes struct {
	spec cliutil.GraphSpec
	k    int
	eps  float64
}

func opimcSize(smoke bool) opimcSizes {
	if smoke {
		return opimcSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 3200, Seed: 1, Model: "IC"}, 5, 0.3}
	}
	// n=40,820, m=733,960. About 3% of solves need an 8th doubling round,
	// so p90 stays inside the 7-round mode.
	return opimcSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 40, Seed: 1, Model: "IC"}, 50, 0.1}
}

type opimcRun struct {
	p       params
	size    opimcSizes
	sampler *rrset.Sampler
	delta   float64
	first   *core.CResult // solve 0
	solves  int           // counted solves (see countedOps)
	rounds  int
	rr      int64
}

func setupOPIMC(p params) (instance, error) {
	size := opimcSize(p.smoke)
	s, err := loadGraph(size.spec)
	if err != nil {
		return nil, err
	}
	return &opimcRun{p: p, size: size, sampler: s, delta: 1 / float64(s.Graph().N())}, nil
}

func (o *opimcRun) options(seed uint64) core.Options {
	return core.Options{Variant: core.Plus, Seed: seed, Workers: o.p.nproc}
}

func (o *opimcRun) run(r *runner, deadline time.Time) {
	genTimer := obs.Default().Timer("rrset_generate_seconds")
	for i := 0; time.Now().Before(deadline); i++ {
		seed := subSeed(o.p.seed, uint64(i))
		opts := o.options(seed)
		var res *core.CResult
		d, err := r.call("core.Maximize", func(ctx context.Context) error {
			if r.tr != nil {
				// One child span per doubling round, split into its RR
				// sampling (the generate timer's delta — sampling comes
				// first in a round) and the selection and bounds after it.
				root, _ := ctx.Value(spanKey{}).(int64)
				prev, prevGen := time.Now(), genTimer.Stats().Sum
				opts.OnRound = func(int, *core.Snapshot) {
					now, gen := time.Now(), genTimer.Stats().Sum
					id := r.tr.add("core.round", root, prev, now)
					mid := prev.Add(gen - prevGen)
					r.tr.add("rrset.generate", id, prev, mid)
					r.tr.add("maxcover.select", id, mid, now)
					prev, prevGen = now, gen
				}
			}
			var err error
			res, err = core.Maximize(o.sampler, o.size.k, o.size.eps, o.delta, opts)
			return err
		})
		if err != nil {
			r.fail("solve %d: %v", i, err)
			continue
		}
		r.op(d)
		if !res.Certified || res.Alpha < res.Target || !distinct(res.Seeds, o.size.k) {
			r.fail("solve %d (seed %d) not certified: %v", i, seed, res)
		}
		if i == 0 {
			o.first = res
		}
		if i < countedOps {
			o.solves++
			o.rounds += res.Rounds
			o.rr += res.RRGenerated
		}
	}
}

// check re-solves solve 0: the RR count, seeds and α must repeat exactly.
func (o *opimcRun) check(r *runner) {
	if o.first == nil {
		return
	}
	again, err := core.Maximize(o.sampler, o.size.k, o.size.eps, o.delta, o.options(subSeed(o.p.seed, 0)))
	if err != nil {
		r.fail("re-solve: %v", err)
		return
	}
	if again.RRGenerated != o.first.RRGenerated || again.Alpha != o.first.Alpha || !slices.Equal(again.Seeds, o.first.Seeds) {
		r.fail("re-solve of solve 0 differs: %v vs %v", again, o.first)
	}
}

func (o *opimcRun) probe(r *runner, l *ledger) {
	if o.solves == 0 {
		return
	}
	l.Probes["core.rounds_per_solve"] = float64(o.rounds) / float64(o.solves)
	l.Probes["core.rr_per_solve"] = float64(o.rr) / float64(o.solves)
	probeMaxcover(r, l, o.sampler, int(o.first.Theta1), o.size.k, o.p.seed)
}

func (o *opimcRun) close() {}
