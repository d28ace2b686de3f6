package server

// Model-based differential test of the restore path. Each seed draws a
// random sequence of operations against one 400-node graph with
// CheckpointDir set and MaxLoadedSessions 1 — create, advance, snapshot,
// checkpoint, a one-op mutation batch, a batch reweighting every edge
// (which outgrows the graph's OPIMG2 encoding and so compacts the
// journal), touching another session (which evicts the resident one), and
// kill −9 followed by the opimd restart sequence (fresh default session on
// the base graph, New, Resume). At the end every session must serialize to
// exactly the bytes of a fresh core.Online with its options, run on the
// final graph, advanced to its RR count and queried as many times as the
// session was.
//
// The model tracks what survives a kill: each session's RR count and δ
// query count at its last checkpoint, written by POST checkpoint or by an
// eviction.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

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
// these through POST /sessions.
var modelOpts = map[string]core.Options{
	DefaultSessionID: {K: 4, Delta: 0.05, Variant: core.Plus, Seed: 9},
	"s1":             {K: 3, Delta: 0.05, Variant: core.Plus, Seed: 31},
	"s2":             {K: 5, Delta: 0.1, Variant: core.Plus, Seed: 57},
}

func runRestoreModel(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	g := robustSampler(t).Graph() // the model's copy of the graph

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
		srv = New(robustSession(t, robustSampler(t)), Config{Batch: 500, CheckpointDir: dir, MaxLoadedSessions: 1})
		adopted, err := srv.Resume()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if want := len(durable) - 1; len(adopted) != want {
			t.Fatalf("restart adopted %v, model holds %d checkpointed session(s)", adopted, want)
		}
		ts = httptest.NewServer(srv.Handler())
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
		for _, id := range []string{DefaultSessionID, "s1", "s2"} {
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
	for step := 0; step < 30; step++ {
		switch op := r.Intn(8); op {
		case 0: // create
			id := []string{"s1", "s2"}[r.Intn(2)]
			if _, ok := live[id]; ok {
				continue
			}
			o := modelOpts[id]
			trace = append(trace, "create "+id)
			if _, err := c().CreateSession(SessionSpec{ID: id, K: o.K, Delta: o.Delta, Seed: o.Seed}); err != nil {
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
			up, ms := modelBatch(t, r, g)
			trace = append(trace, "mutate "+up.Op)
			resp, err := c().UpdateGraph(DefaultGraphName, []GraphUpdate{up})
			if err != nil {
				t.Fatal(err)
			}
			if g, err = g.WithMutations(ms); err != nil {
				t.Fatal(err)
			}
			if resp.Lineage != g.EpochLineage() {
				t.Fatalf("server graph at lineage %.12s, model at %.12s", resp.Lineage, g.EpochLineage())
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
			ups, ms := reweightAll(t, g, float32(0.01+0.2*r.Float64()))
			trace = append(trace, "reweight-all")
			before := compactions(t)
			resp, err := c().UpdateGraph(DefaultGraphName, ups)
			if err != nil {
				t.Fatal(err)
			}
			if compactions(t) == before {
				t.Fatalf("a batch over all %d edges did not compact the journal", len(ups))
			}
			if g, err = g.WithMutations(ms); err != nil {
				t.Fatal(err)
			}
			if resp.Lineage != g.EpochLineage() {
				t.Fatalf("server graph at lineage %.12s, model at %.12s", resp.Lineage, g.EpochLineage())
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
		ref, err := core.NewOnline(rrset.NewSampler(g, diffusion.IC), modelOpts[id])
		if err != nil {
			t.Fatal(err)
		}
		ref.SetGraphIdentity(DefaultGraphName, "")
		ref.Advance(int(cnt.numRR))
		for i := 0; i < cnt.queries; i++ {
			ref.Snapshot()
		}
		var want bytes.Buffer
		if err := core.SaveSession(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, srv, id), want.Bytes()) {
			t.Fatalf("session %s (num_rr=%d, %d queries) is not byte-identical to a fresh run on the final graph", id, cnt.numRR, cnt.queries)
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
