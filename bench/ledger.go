package main

import (
	"strings"
	"time"

	"github.com/reprolab/opim/internal/maxcover"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// endpoints are the opimd endpoints the workloads call, by the names the
// server's per-endpoint timers use (server_<name>_seconds).
var endpoints = []string{"advance", "snapshot", "sessions", "session", "graph_updates", "rounds", "observations"}

// reportedEndpoints are the endpoints with handler_ms and outside_ms
// metrics: each workload's operations and session creation.
var reportedEndpoints = []string{"advance", "snapshot", "graph_updates", "rounds", "observations", "sessions"}

// perLayer lists the traced pass's metrics in BENCHMARK.json order. Every
// workload reports all of them; a layer a workload never calls reads 0.
// Busy times are per operation of the workload (one solve, step, batch or
// round), not totals: a run lasts a fixed time, so a faster program
// completes more operations and its totals would grow.
var perLayer = []struct{ name, unit string }{
	{"rrset.generate_ms_per_op", "ms"},
	{"rrset.index_build_ms_per_op", "ms"},
	{"rrset.sets_per_busy_s", "sets/s"},
	{"rrset.nodes_per_set", "nodes"},
	{"rrset.edges_per_set", "edges"},
	{"rrset.repair_ms_per_op", "ms"},
	{"rrset.regenerated_per_batch", "sets"},
	{"rrset.unchanged_ratio", "ratio"},
	{"maxcover.select_ms_per_op", "ms"},
	{"maxcover.greedy_ms", "ms"},
	{"maxcover.bounds_ms", "ms"},
	{"core.rounds_per_solve", "rounds"},
	{"core.rr_per_solve", "sets"},
	{"graph.derive_ms.p50", "ms"},
	{"server.advance.handler_ms", "ms"},
	{"server.snapshot.handler_ms", "ms"},
	{"server.graph_updates.handler_ms", "ms"},
	{"server.rounds.handler_ms", "ms"},
	{"server.observations.handler_ms", "ms"},
	{"server.sessions.handler_ms", "ms"},
	{"server.advance.outside_ms", "ms"},
	{"server.snapshot.outside_ms", "ms"},
	{"server.graph_updates.outside_ms", "ms"},
	{"server.rounds.outside_ms", "ms"},
	{"server.observations.outside_ms", "ms"},
	{"server.sessions.outside_ms", "ms"},
	{"server.mutation_other_ms_per_op", "ms"},
	{"server.checkpoint_ms_per_op", "ms"},
	{"server.checkpoint_bytes_per_op", "bytes"},
	{"server.refused", "count"},
	{"server.admission_wait_ms_per_op", "ms"},
	{"learn.start_round_ms", "ms"},
	{"learn.observe_ms", "ms"},
	{"bench.request_ms_per_op", "ms"},
	{"bench.unattributed_ms_per_op", "ms"},
	{"bench.lag_ms.p90", "ms"},
	{"bench.cpu_util", "share"},
	{"bench.trace_overhead", "ratio"},
}

// reqLedger splits one request kind's mean latency into the server
// handler's part and everything outside it (routing, admission, HTTP and
// JSON on both ends).
type reqLedger struct {
	Count         int     `json:"count"`
	ClientMeanMS  float64 `json:"client_mean_ms"`
	HandlerMeanMS float64 `json:"handler_mean_ms,omitempty"`
	OutsideMeanMS float64 `json:"outside_mean_ms,omitempty"`
}

// ledger is the traced pass's account of where the client-side request
// time went. BusyS holds registry deltas per layer, Spans the per-name span
// totals and self times, and AttributedS an exclusive split of ClientS
// into layers; UnattributedS is what no layer accounts for.
type ledger struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	WallS         float64                `json:"wall_s"`
	CPUS          float64                `json:"cpu_s"`
	Ops           int                    `json:"ops"`
	ClientS       float64                `json:"client_request_s"`
	Requests      map[string]reqLedger   `json:"requests"`
	BusyS         map[string]float64     `json:"busy_s"`
	Spans         map[string]spanSummary `json:"spans"`
	AttributedS   map[string]float64     `json:"attributed_s"`
	UnattributedS float64                `json:"unattributed_s"`
	Probes        map[string]float64     `json:"probes"`
	Metrics       map[string]metric      `json:"per_layer"`

	nproc   int
	delta   regDelta
	samples map[string]int
}

func newLedger(name string, seed uint64, wall, cpu float64, nproc int, r *runner, d regDelta, tr *tracer) *ledger {
	l := &ledger{
		Workload: name, Seed: seed, WallS: wall, CPUS: cpu, Ops: len(r.ops),
		Requests: make(map[string]reqLedger),
		BusyS: map[string]float64{
			"rrset.generate":        d.seconds("rrset_generate_seconds"),
			"rrset.index_build":     d.seconds("rrset_index_build_seconds"),
			"rrset.repair":          d.seconds("rrset_repair_seconds"),
			"server.graph_mutation": d.seconds("server_graph_mutation_seconds"),
			"server.checkpoint":     d.seconds("server_checkpoint_seconds"),
			"server.admission_wait": d.seconds("server_admission_wait_seconds"),
		},
		Spans:  tr.summarize(),
		Probes: make(map[string]float64),
		nproc:  nproc,
		delta:  d,
	}
	for _, ep := range endpoints {
		l.BusyS["server."+ep] = d.seconds("server_" + ep + "_seconds")
	}
	for name, st := range r.reqs {
		l.ClientS += st.sumS
		rl := reqLedger{Count: st.n, ClientMeanMS: 1000 * st.sumS / float64(st.n)}
		if ep, ok := strings.CutPrefix(name, "http."); ok {
			n := d.observations("server_" + ep + "_seconds")
			rl.HandlerMeanMS = 1000 * ratio(d.seconds("server_"+ep+"_seconds"), n)
			rl.OutsideMeanMS = rl.ClientMeanMS - rl.HandlerMeanMS
		}
		l.Requests[name] = rl
	}
	return l
}

// finish splits the client-side request time into layers and derives the
// per-layer metrics. On opimc, selection is each OPIM-C round's time
// outside RR sampling (the "maxcover.select" spans); on the server
// workloads it is the snapshot handler's time, and the selection inside a
// learning round stays unattributed. Admission wait happens before the
// handler's timer starts, so it is taken out of the time outside handlers.
func (l *ledger) finish(r *runner) {
	b := l.BusyS
	var handler float64
	for _, ep := range endpoints {
		handler += b["server."+ep]
	}
	sel := b["server.snapshot"]
	if s, ok := l.Spans["maxcover.select"]; ok {
		sel = s.TotalS
	}
	l.AttributedS = map[string]float64{
		"rrset.generate":        b["rrset.generate"],
		"rrset.repair":          b["rrset.repair"],
		"maxcover.select":       sel,
		"server.mutation_other": max(0, b["server.graph_mutation"]-b["rrset.repair"]),
		"server.checkpoint":     b["server.checkpoint"],
		"server.admission_wait": b["server.admission_wait"],
	}
	if handler > 0 {
		l.AttributedS["server.outside"] = l.ClientS - handler - b["server.admission_wait"]
	}
	l.UnattributedS = l.ClientS
	for _, v := range l.AttributedS {
		l.UnattributedS -= v
	}

	d, ops := l.delta, float64(l.Ops)
	perOp := func(s float64) float64 { return 1000 * ratio(s, ops) }
	generated := d.count("rrset_generated_total")
	regenerated := d.count("rrset_regenerated_total")
	v := map[string]float64{
		"rrset.generate_ms_per_op":        perOp(b["rrset.generate"]),
		"rrset.index_build_ms_per_op":     perOp(b["rrset.index_build"]),
		"rrset.sets_per_busy_s":           ratio(generated, b["rrset.generate"]),
		"rrset.nodes_per_set":             ratio(d.count("rrset_nodes_total"), generated),
		"rrset.edges_per_set":             ratio(d.count("rrset_edges_examined_total"), generated),
		"rrset.repair_ms_per_op":          perOp(b["rrset.repair"]),
		"rrset.regenerated_per_batch":     ratio(regenerated, d.count("server_graph_mutations_total")),
		"rrset.unchanged_ratio":           ratio(d.count("rrset_repair_unchanged_total"), regenerated),
		"maxcover.select_ms_per_op":       perOp(sel),
		"server.mutation_other_ms_per_op": perOp(l.AttributedS["server.mutation_other"]),
		"server.checkpoint_ms_per_op":     perOp(b["server.checkpoint"]),
		"server.checkpoint_bytes_per_op":  ratio(d.count("server_checkpoint_bytes_total"), ops),
		"server.refused":                  d.count("server_session_conflicts_total") + d.count("server_graph_mutation_conflicts_total") + d.count("server_admission_rejected_total"),
		"server.admission_wait_ms_per_op": perOp(b["server.admission_wait"]),
		"bench.request_ms_per_op":         perOp(l.ClientS),
		"bench.unattributed_ms_per_op":    perOp(l.UnattributedS),
		"bench.lag_ms.p90":                quantile(r.lags, 0.9),
		"bench.cpu_util":                  ratio(l.CPUS, l.WallS*float64(l.nproc)),
	}
	for _, name := range []string{"maxcover.greedy_ms", "maxcover.bounds_ms", "core.rounds_per_solve", "core.rr_per_solve", "graph.derive_ms.p50", "learn.start_round_ms", "learn.observe_ms"} {
		v[name] = l.Probes[name]
	}
	for _, ep := range reportedEndpoints {
		rl := l.Requests["http."+ep]
		v["server."+ep+".handler_ms"] = rl.HandlerMeanMS
		v["server."+ep+".outside_ms"] = rl.OutsideMeanMS
	}

	var calls int
	for _, st := range r.reqs {
		calls += st.n
	}
	l.Metrics = make(map[string]metric, len(perLayer))
	l.samples = make(map[string]int, len(perLayer))
	for _, m := range perLayer {
		l.Metrics[m.name] = metric{v[m.name], m.unit}
		l.samples[m.name] = calls
	}
	for _, ep := range reportedEndpoints {
		n := l.Requests["http."+ep].Count
		l.samples["server."+ep+".handler_ms"] = n
		l.samples["server."+ep+".outside_ms"] = n
	}
	l.samples["bench.lag_ms.p90"] = len(r.lags)
	for _, name := range []string{"maxcover.greedy_ms", "maxcover.bounds_ms"} {
		l.samples[name] = probeReps
	}
}

// probeReps is how many timed repetitions a probe takes; it reports the
// median.
const probeReps = 5

// probeMaxcover times greedy selection without and with the eq. (10)
// bounds (OPIM⁺'s selectTopK pass) on a fresh collection of theta1 RR sets
// — the size of the workload's final R1 — at the workload's k, and records
// the kernel ChooseKernel picks for it (0 counting, 1 bitset). The scratch
// is warmed first, as a session's is.
func probeMaxcover(r *runner, l *ledger, s *rrset.Sampler, theta1, k int, seed uint64) {
	c := rrset.NewCollection(s.Graph().N())
	rrset.Generate(c, s, theta1, rng.New(seed), 0)
	sc := maxcover.NewScratch()
	sc.GreedyWithBounds(c, k)
	timeIt := func(name string, f func()) float64 {
		var ms []float64
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			f()
			t1 := time.Now()
			r.tr.add("probe."+name, 0, t0, t1)
			ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
		return quantile(ms, 0.5)
	}
	l.Probes["maxcover.greedy_ms"] = timeIt("maxcover.greedy", func() { sc.Greedy(c, k) })
	l.Probes["maxcover.bounds_ms"] = timeIt("maxcover.bounds", func() { sc.GreedyWithBounds(c, k) })
	if maxcover.ChooseKernel(c, k) == maxcover.KernelBitset {
		l.Probes["maxcover.kernel"] = 1
	}
	l.Probes["maxcover.theta1"] = float64(theta1)
}
