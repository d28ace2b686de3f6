package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// serve-mutate: graph writes beside reads. Two open-loop clients, each on
// its own connection and fixed schedule: a writer sends mutation batches
// to the daemon's graph, and a reader sends snapshots round-robin over the
// sessions on it. Each batch inserts current non-edges and deletes the
// previous batch's inserts, so n, m and θ stay stationary. An operation is
// one batch, timed from when the schedule made it due.
//
// A snapshot that arrives while a batch is applied is refused with 409 by
// the mutation gate, which asks the client to retry shortly. The reader
// counts such refusals (they are the gate working, and the run's result
// counts only operations that fail) and times the reads that succeed, from
// their due time.
var mutateWorkload = workload{
	name:  "serve-mutate",
	setup: setupMutate,
}

type mutateSizes struct {
	spec     cliutil.GraphSpec
	k        int
	sessions int
	prefill  int
	ops      int           // inserts (and deletes) per batch
	write    time.Duration // batch period
	read     time.Duration // snapshot period
}

func mutateSize(smoke bool) mutateSizes {
	if smoke {
		return mutateSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 6400, Seed: 1, Model: "IC"}, 5, 4, 2048, 4, 20 * time.Millisecond, 5 * time.Millisecond}
	}
	// n=4,082.
	return mutateSizes{cliutil.GraphSpec{Profile: "synth-pokec", Scale: 400, Seed: 1, Model: "IC"}, 50, 4, 131072, 32, 200 * time.Millisecond, 50 * time.Millisecond}
}

type mutateRun struct {
	p       params
	size    mutateSizes
	sampler *rrset.Sampler
	d       *daemon
	seeds   []uint64 // per session

	batches  [][]graph.Mutation
	lastResp server.UpdateGraphResponse
	reads    []float64 // successful snapshots' latency from due time, ms
	refused  int       // snapshots refused by the mutation gate
	deriveS  []float64 // replay time of each batch (check)
}

func setupMutate(p params) (instance, error) {
	size := mutateSize(p.smoke)
	s, err := loadGraph(size.spec)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.tmp, "mutate-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(s, size.spec, dir, p.tr)
	if err != nil {
		return nil, err
	}
	m := &mutateRun{p: p, size: size, sampler: s, d: d}
	cl := d.client(nil)
	defer cl.HTTPClient.CloseIdleConnections()
	for i := 0; i < size.sessions; i++ {
		seed := subSeed(p.seed, 1, uint64(i))
		id := idOf("mut", i)
		if _, err := cl.CreateSession(server.SessionSpec{ID: id, K: size.k, Seed: seed}); err != nil {
			d.close()
			return nil, err
		}
		if _, err := cl.Session(id).Advance(size.prefill); err != nil {
			d.close()
			return nil, err
		}
		m.seeds = append(m.seeds, seed)
	}
	return m, nil
}

// nextBatch deletes the previous batch's inserts and inserts ops fresh
// non-edges of the base graph, weighted like the graph's own edges
// (1/(in-degree+1)).
func (m *mutateRun) nextBatch(b int) []graph.Mutation {
	g := m.sampler.Graph()
	var ms []graph.Mutation
	prev := map[[2]int32]bool{}
	if b > 0 {
		for _, mu := range m.batches[b-1] {
			if mu.Op == graph.OpEdgeInsert {
				ms = append(ms, graph.Mutation{Op: graph.OpEdgeDelete, From: mu.From, To: mu.To})
				prev[[2]int32{mu.From, mu.To}] = true
			}
		}
	}
	src := rng.New(subSeed(m.p.seed, 2, uint64(b)))
	picked := map[[2]int32]bool{}
	for len(picked) < m.size.ops {
		u, v := src.Int31n(g.N()), src.Int31n(g.N())
		e := [2]int32{u, v}
		if u == v || g.OutEdgeIndex(u, v) >= 0 || prev[e] || picked[e] {
			continue
		}
		picked[e] = true
		ms = append(ms, graph.Mutation{Op: graph.OpEdgeInsert, From: u, To: v, P: float32(1 / float64(g.InDegree(v)+1))})
	}
	return ms
}

// run starts the writer and the reader at the same instant and waits for
// both. The reader's schedule is offset by a fifth of its period, so that
// none of its due times coincides with a batch's: which of two requests
// sent at the same instant reaches the gate first is a coin toss, and the
// refusal count would follow it.
func (m *mutateRun) run(r *runner, deadline time.Time) {
	r.period = float64(m.size.write.Nanoseconds()) / 1e6
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.write(r, start, deadline)
	}()
	go func() {
		defer wg.Done()
		m.read(r, start.Add(m.size.read/5), deadline)
	}()
	wg.Wait()
}

// write sends one batch per write period until deadline or the first
// failed batch.
func (m *mutateRun) write(r *runner, start, deadline time.Time) {
	cl := m.d.client(r.tr)
	defer cl.HTTPClient.CloseIdleConnections()
	openLoop(start, deadline, m.size.write, r.lag, func(b int, due time.Time) bool {
		ms := m.nextBatch(b)
		m.batches = append(m.batches, ms)
		ups := make([]server.GraphUpdate, len(ms))
		for i, mu := range ms {
			ups[i] = server.GraphUpdate{Op: mu.Op.String(), From: mu.From, To: mu.To, P: mu.P}
		}
		if _, err := r.call("http.graph_updates", func(ctx context.Context) error {
			var err error
			m.lastResp, err = cl.UpdateGraphContext(ctx, server.DefaultGraphName, ups)
			return err
		}); err != nil {
			r.fail("batch %d: %v", b, err)
			return false
		}
		r.op(time.Since(due))
		return true
	})
}

// read sends one snapshot per read period, round-robin over the sessions,
// until deadline.
func (m *mutateRun) read(r *runner, start, deadline time.Time) {
	cl := m.d.client(r.tr)
	defer cl.HTTPClient.CloseIdleConnections()
	openLoop(start, deadline, m.size.read, nil, func(i int, due time.Time) bool {
		sc := cl.Session(idOf("mut", i%m.size.sessions))
		_, err := r.call("http.snapshot", func(ctx context.Context) error {
			_, err := sc.SnapshotContext(ctx)
			if err != nil && strings.Contains(err.Error(), ": 409 Conflict: ") {
				return fmt.Errorf("%w: %v", errRefused, err)
			}
			return err
		})
		switch {
		case err == nil:
			m.reads = append(m.reads, float64(time.Since(due).Nanoseconds())/1e6)
		case errors.Is(err, errRefused):
			m.refused++
		}
		return true
	})
}

// openLoop calls send(i, due) at due = start + i·period for every due time
// before deadline, until send returns false. A call that falls due while
// the previous one is still in flight starts as soon as it returns. lag,
// when not nil, receives the generator's own delay: how late each call
// started behind the later of its due time and the previous call's end.
func openLoop(start, deadline time.Time, period time.Duration, lag func(time.Duration), send func(i int, due time.Time) bool) {
	free := start // when the previous call returned
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		if lag != nil {
			ready := due
			if free.After(ready) {
				ready = free
			}
			lag(time.Since(ready))
		}
		if !send(i, due) {
			return
		}
		free = time.Now()
	}
}

// check replays every batch on a copy of the base graph: the fingerprint
// must equal the daemon's, and a fresh core.Online on the replayed graph
// must serve session 0's snapshot bit for bit (repair is byte-identical to
// resampling on the mutated graph).
func (m *mutateRun) check(r *runner) {
	g := m.sampler.Graph()
	for i, ms := range m.batches {
		t0 := time.Now()
		next, err := g.WithMutations(ms)
		if err != nil {
			r.fail("replaying batch %d: %v", i, err)
			return
		}
		m.deriveS = append(m.deriveS, time.Since(t0).Seconds())
		g = next
	}
	if len(m.batches) > 0 && g.Fingerprint() != m.lastResp.Fingerprint {
		r.fail("graph fingerprint %.12s after %d batches, daemon reports %.12s", g.Fingerprint(), len(m.batches), m.lastResp.Fingerprint)
	}
	cl := m.d.client(nil)
	defer cl.HTTPClient.CloseIdleConnections()
	snap, err := cl.Session(idOf("mut", 0)).Snapshot()
	if err != nil {
		r.fail("final snapshot: %v", err)
		return
	}
	o, err := core.NewOnline(rrset.NewSampler(g, m.sampler.Model()), core.Options{
		K: m.size.k, Delta: 1 / float64(g.N()), Variant: core.Plus, Seed: m.seeds[0],
	})
	if err != nil {
		r.fail("fresh session: %v", err)
		return
	}
	o.Advance(m.size.prefill)
	fresh := o.Snapshot()
	if fresh.Alpha != snap.Alpha || !slices.Equal(fresh.Seeds, snap.Seeds) {
		r.fail("session 0 after %d batches: daemon α=%v, fresh resample α=%v", len(m.batches), snap.Alpha, fresh.Alpha)
	}
}

func (m *mutateRun) probe(r *runner, l *ledger) {
	l.Probes["graph.derive_ms.p50"] = 1000 * quantile(m.deriveS, 0.5)
	l.Probes["snapshot_ms.p50"] = quantile(m.reads, 0.5)
	l.Probes["snapshot_ms.p90"] = quantile(m.reads, 0.9)
	l.Probes["snapshot_served"] = float64(len(m.reads))
	l.Probes["snapshot_refused"] = float64(m.refused)
	probeMaxcover(r, l, m.sampler, m.size.prefill/2, m.size.k, m.seeds[0])
}

func (m *mutateRun) close() { m.d.close() }
