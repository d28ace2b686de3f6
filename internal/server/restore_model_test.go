package server

// Model-based differential test of the restore path. Each seed draws a
// random sequence of operations against two graphs — the 400-node default
// graph New registers, and a second graph g2 registered by POST /graphs
// from a spec — with CheckpointDir set, MaxLoadedSessions 1 and
// MaxLoadedGraphs 1: create, advance, snapshot, checkpoint, a one-op
// mutation batch on either graph, a batch reweighting every edge of either
// graph (which outgrows the graph's OPIMG2 encoding and so compacts its
// journal), touching another session (which evicts the resident one, and
// unloads g2 once no resident session holds it), and kill −9 followed by
// the opimd restart sequence (fresh default session on the base graph,
// New, Resume). The default graph has no spec, so it stays resident and g2
// is the one graph the cap unloads; a later touch reloads it through its
// journal, compaction snapshot included. At the end every session must
// serialize to exactly the bytes of a fresh core.Online with its options,
// run on its own graph's final state, advanced to its RR count and queried
// as many times as the session was.
//
// The model tracks what survives a kill: each session's RR count and δ
// query count at its last checkpoint, written by POST checkpoint or by an
// eviction. After a restart g2 comes back by adoption when a session on it
// has a checkpoint (registered from the spec the checkpoint records), and
// otherwise the model registers it again, as a client would.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

func TestRestoreModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runRestoreModel(t, seed) })
	}
}

// modelOpts are the engine options of every session the model can hold:
// the default session is robustSession's, the others are created with
// these through POST /sessions, on the graph modelGraph names.
var modelOpts = map[string]core.Options{
	DefaultSessionID: {K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9},
	"s1":             {K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31},
	"s2":             {K: 5, Delta: 0.1, Variant: core.Plus, Seed: 57},
	"s3":             {K: 4, Delta: 0.1, Variant: core.Plus, Seed: 83},
}

// modelGraph names each model session's catalog graph.
var modelGraph = map[string]string{
	DefaultSessionID: DefaultGraphName,
	"s1":             DefaultGraphName,
	"s2":             DefaultGraphName,
	"s3":             "g2",
}

// modelSpec is g2's spec: small, so loading it again is cheap.
var modelSpec = cliutil.GraphSpec{Profile: "synth-pokec", Scale: 6400}

func runRestoreModel(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	g2, _, err := modelSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The model's copy of each graph.
	graphs := map[string]*graph.Graph{DefaultGraphName: robustSampler(t).Graph(), "g2": g2}

	// live holds every live session's counts; durable the counts its last
	// checkpoint holds (the default session starts durable at zero: with no
	// checkpoint, a restart builds it fresh). resident names the one loaded
	// session when the model knows it changed since its last checkpoint.
	type counts struct {
		numRR   int64
		queries int
	}
	live := map[string]counts{DefaultSessionID: {}}
	durable := map[string]counts{DefaultSessionID: {}}
	resident := ""

	var srv *Server
	var ts *httptest.Server
	start := func() {
		srv = New(robustSession(t, robustSampler(t)), Config{Batch: 500, CheckpointDir: dir, MaxLoadedSessions: 1, MaxLoadedGraphs: 1})
		adopted, err := srv.Resume()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if want := len(durable) - 1; len(adopted) != want {
			t.Fatalf("restart adopted %v, model holds %d checkpointed session(s)", adopted, want)
		}
		ts = httptest.NewServer(srv.Handler())
		// Adopting a checkpointed session on g2 registered g2 from the
		// checkpoint's spec; otherwise the restarted daemon does not know it.
		if _, ok := durable["s3"]; !ok {
			if _, err := NewClient(ts.URL).CreateGraph(CreateGraphRequest{Name: "g2", GraphSpec: modelSpec}); err != nil {
				t.Fatalf("registering g2: %v", err)
			}
		}
	}
	start()
	defer func() { ts.Close() }()
	c := func() *Client { return NewClient(ts.URL) }

	// use records that id became the resident session: with
	// MaxLoadedSessions 1, the session resident before it was evicted,
	// checkpointing its current count.
	use := func(id string) {
		if resident != "" && resident != id {
			durable[resident] = live[resident]
		}
		resident = id
	}
	pick := func() string {
		ids := make([]string, 0, len(live))
		for _, id := range []string{DefaultSessionID, "s1", "s2", "s3"} {
			if _, ok := live[id]; ok {
				ids = append(ids, id)
			}
		}
		return ids[r.Intn(len(ids))]
	}

	var trace []string
	defer func() {
		if t.Failed() {
			t.Logf("operations: %v", trace)
		}
	}()
	pickGraph := func() string { return []string{DefaultGraphName, "g2"}[r.Intn(2)] }
	for step := 0; step < 30; step++ {
		switch op := r.Intn(8); op {
		case 0: // create
			id := []string{"s1", "s2", "s3"}[r.Intn(3)]
			if _, ok := live[id]; ok {
				continue
			}
			o := modelOpts[id]
			trace = append(trace, "create "+id)
			if _, err := c().CreateSession(SessionSpec{ID: id, Graph: modelGraph[id], K: o.K, Delta: o.Delta, Seed: o.Seed}); err != nil {
				t.Fatal(err)
			}
			use(id)
			live[id] = counts{}
		case 1: // advance (an even count keeps the R1/R2 split history-free)
			id, n := pick(), 2*(1+r.Intn(150))
			trace = append(trace, fmt.Sprintf("advance %s %d", id, n))
			if _, err := c().Session(id).Advance(n); err != nil {
				t.Fatal(err)
			}
			use(id)
			cnt := live[id]
			cnt.numRR += int64(n)
			live[id] = cnt
		case 2: // checkpoint
			id := pick()
			trace = append(trace, "checkpoint "+id)
			if _, err := c().Session(id).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			use(id)
			durable[id] = live[id]
		case 3: // mutation batch
			name := pickGraph()
			up, ms := modelBatch(t, r, graphs[name])
			trace = append(trace, "mutate "+name+" "+up.Op)
			resp, err := c().UpdateGraph(name, []GraphUpdate{up})
			if err != nil {
				t.Fatal(err)
			}
			if graphs[name], err = graphs[name].WithMutations(ms); err != nil {
				t.Fatal(err)
			}
			if want := graphs[name].EpochLineage(); resp.Lineage != want {
				t.Fatalf("server graph %s at lineage %.12s, model at %.12s", name, resp.Lineage, want)
			}
		case 4: // touch another session, evicting the resident one
			id := pick()
			trace = append(trace, "touch "+id)
			sess := srv.lookup(id)
			if status, msg := srv.lockEngine(sess); status != 0 {
				t.Fatalf("touch %s: %d %s", id, status, msg)
			}
			sess.mu.Unlock()
			use(id)
		case 5: // kill −9 and restart
			trace = append(trace, "kill")
			ts.Close() // no Stop, no Shutdown: only checkpoints and the journal survive
			for id := range live {
				if cnt, ok := durable[id]; ok {
					live[id] = cnt
				} else {
					delete(live, id)
				}
			}
			resident = ""
			start()
		case 6: // a batch over every edge, which compacts the journal
			name := pickGraph()
			ups, ms := reweightAll(t, graphs[name], float32(0.01+0.2*r.Float64()))
			trace = append(trace, "reweight-all "+name)
			before := compactions(t)
			resp, err := c().UpdateGraph(name, ups)
			if err != nil {
				t.Fatal(err)
			}
			if compactions(t) == before {
				t.Fatalf("a batch over all %d edges of %s did not compact the journal", len(ups), name)
			}
			if graphs[name], err = graphs[name].WithMutations(ms); err != nil {
				t.Fatal(err)
			}
			if want := graphs[name].EpochLineage(); resp.Lineage != want {
				t.Fatalf("server graph %s at lineage %.12s, model at %.12s", name, resp.Lineage, want)
			}
		case 7: // snapshot, which spends one δ query
			id := pick()
			trace = append(trace, "snapshot "+id)
			if _, err := c().Session(id).Snapshot(); err != nil {
				t.Fatal(err)
			}
			use(id)
			cnt := live[id]
			cnt.queries++
			live[id] = cnt
		}
	}

	for id, cnt := range live {
		st, err := c().Session(id).Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.NumRR != cnt.numRR {
			t.Fatalf("session %s at num_rr=%d, model says %d", id, st.NumRR, cnt.numRR)
		}
		sess := srv.lookup(id)
		if status, msg := srv.lockEngine(sess); status != 0 {
			t.Fatalf("loading %s: %d %s", id, status, msg)
		}
		sess.mu.Unlock()
		ref, err := core.NewOnline(rrset.NewSampler(graphs[modelGraph[id]], diffusion.IC), modelOpts[id])
		if err != nil {
			t.Fatal(err)
		}
		spec := "" // New registers the default graph without a spec
		if modelGraph[id] == "g2" {
			spec = modelSpec.String()
		}
		ref.SetGraphIdentity(modelGraph[id], spec)
		ref.Advance(int(cnt.numRR))
		for i := 0; i < cnt.queries; i++ {
			ref.Snapshot()
		}
		var want bytes.Buffer
		if err := core.SaveSession(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, srv, id), want.Bytes()) {
			t.Fatalf("session %s (num_rr=%d, %d queries) is not byte-identical to a fresh run on its graph's final state", id, cnt.numRR, cnt.queries)
		}
	}
}

// modelBatch draws one valid mutation against g: an edge insert, delete
// or reweight, or a node add.
func modelBatch(t *testing.T, r *rand.Rand, g *graph.Graph) (GraphUpdate, []graph.Mutation) {
	t.Helper()
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool { edges = append(edges, e); return true })
	e := edges[r.Intn(len(edges))]
	p := float32(0.01 + 0.4*r.Float64())
	var up GraphUpdate
	switch r.Intn(4) {
	case 0:
		up = GraphUpdate{Op: "edge_delete", From: e.From, To: e.To}
	case 1:
		up = GraphUpdate{Op: "set_weight", From: e.From, To: e.To, P: p}
	case 2:
		up = GraphUpdate{Op: "node_add"}
	default:
		for {
			from, to := r.Int31n(g.N()), r.Int31n(g.N())
			if from != to && !hasEdge(g, from, to) {
				up = GraphUpdate{Op: "edge_insert", From: from, To: to, P: p}
				break
			}
		}
	}
	ms, err := updatesToMutations([]GraphUpdate{up})
	if err != nil {
		t.Fatal(err)
	}
	return up, ms
}

func hasEdge(g *graph.Graph, from, to int32) bool {
	ns, _ := g.OutNeighbors(from)
	for _, v := range ns {
		if v == to {
			return true
		}
	}
	return false
}
