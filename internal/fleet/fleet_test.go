package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/faultinject"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

func testSampler(t testing.TB, n int32, seed uint64) *rrset.Sampler {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 8, 0.15, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return rrset.NewSampler(g, diffusion.IC)
}

// localBytes is the ground truth: the serialized bytes of a pure
// single-process generation.
func localBytes(t *testing.T, s *rrset.Sampler, count int, seed uint64) []byte {
	t.Helper()
	c := rrset.NewCollection(s.Graph().N())
	rrset.Generate(c, s, count, rng.New(seed), 0)
	return collBytes(t, c)
}

func collBytes(t *testing.T, c *rrset.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rrset.WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorkers spins up n httptest servers each serving a fresh Worker
// over its own replica of the same graph (same generator seed → same
// fingerprint), returning their base URLs.
func startWorkers(t *testing.T, n int, graphN int32, graphSeed uint64) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := NewWorker(testSampler(t, graphN, graphSeed))
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func quietConfig(urls []string) Config {
	return Config{
		Workers:    urls,
		ChunkSize:  50,
		RPCTimeout: 10 * time.Second,
		Logf:       func(string, ...any) {},
	}
}

// TestFleetLayoutsByteIdentical is the central determinism property: the
// same generation run under {pure local, 1 worker, 2 workers, 3 workers,
// 3 workers with one killed mid-run over a flaky transport} produces the
// identical serialized collection — and therefore identical selected
// seeds downstream — regardless of layout or failures.
func TestFleetLayoutsByteIdentical(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 600
		rngSeed   = 9
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	run := func(t *testing.T, coord *Coordinator) []byte {
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, count, rng.New(rngSeed), 0)
		return collBytes(t, c)
	}

	t.Run("one-worker", func(t *testing.T) {
		coord := NewCoordinator(quietConfig(startWorkers(t, 1, graphN, graphSeed)))
		if !bytes.Equal(run(t, coord), want) {
			t.Fatal("1-worker fleet diverged from local generation")
		}
	})
	t.Run("two-workers", func(t *testing.T) {
		coord := NewCoordinator(quietConfig(startWorkers(t, 2, graphN, graphSeed)))
		if !bytes.Equal(run(t, coord), want) {
			t.Fatal("2-worker fleet diverged from local generation")
		}
	})
	t.Run("three-workers", func(t *testing.T) {
		coord := NewCoordinator(quietConfig(startWorkers(t, 3, graphN, graphSeed)))
		if !bytes.Equal(run(t, coord), want) {
			t.Fatal("3-worker fleet diverged from local generation")
		}
	})
	t.Run("three-workers-one-killed-flaky-transport", func(t *testing.T) {
		urls := startWorkers(t, 2, graphN, graphSeed)

		// The third worker dies after serving its first batch: every
		// later request is refused at the transport level, like a
		// SIGKILLed process whose port stopped answering.
		var served atomic.Int64
		dying := NewWorker(testSampler(t, graphN, graphSeed))
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathGenerate && served.Add(1) > 1 {
				conn, _, err := rw.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close() // drop the connection mid-request
				}
				return
			}
			dying.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)

		cfg := quietConfig(append(urls, srv.URL))
		cfg.Client = &http.Client{Transport: faultinject.NewFlakyRoundTripper(nil, 77, 0.2)}
		cfg.FailThreshold = 2
		coord := NewCoordinator(cfg)
		if !bytes.Equal(run(t, coord), want) {
			t.Fatal("fleet with a killed worker and flaky transport diverged from local generation")
		}
	})
}

// TestDegradedZeroWorkers: an empty (or fully dead) fleet must still
// answer generation requests via local sampling — degraded, never failed.
func TestDegradedZeroWorkers(t *testing.T) {
	s := testSampler(t, 200, 5)
	want := localBytes(t, s, 300, 3)

	before := mDegraded.Value()
	coord := NewCoordinator(quietConfig(nil))
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, 300, rng.New(3), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("degraded generation diverged from local")
	}
	if mDegraded.Value() != before+1 {
		t.Fatalf("fleet_degraded_generations_total = %d, want %d", mDegraded.Value(), before+1)
	}

	// A fleet whose only worker is unreachable degrades the same way.
	coord = NewCoordinator(quietConfig([]string{"http://127.0.0.1:1"}))
	c = rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, 300, rng.New(3), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("unreachable-fleet generation diverged from local")
	}
	if mDegraded.Value() != before+2 {
		t.Fatal("unreachable fleet did not count as degraded")
	}
}

// TestDuplicateDeliverySuppressed: speculative reassignment makes the
// transport at-least-once, so the same lease can be delivered twice; the
// first delivery wins, the second is discarded and counted. (End-to-end,
// the losing RPC is usually cancelled the moment the run completes, so
// the merge-level dedup is exercised directly.)
func TestDuplicateDeliverySuppressed(t *testing.T) {
	s := testSampler(t, 100, 3)
	r := &run{
		c:        NewCoordinator(quietConfig(nil)),
		sampler:  s,
		leases:   []*lease{{lo: 0, hi: 10}, {lo: 10, hi: 20}},
		inFlight: map[int]bool{0: true, 1: true},
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.remaining = len(r.leases)

	first := rrset.SampleAt(s, 10, rng.New(1), 0, 1)
	second := rrset.SampleAt(s, 10, rng.New(1), 0, 1)
	dupBefore := mDuplicates.Value()
	r.markDone(0, first, nil)
	if r.remaining != 1 {
		t.Fatalf("remaining = %d after first delivery, want 1", r.remaining)
	}
	r.markDone(0, second, nil) // the losing speculative delivery
	if r.remaining != 1 {
		t.Fatalf("remaining = %d after duplicate delivery, want 1 — duplicate was merged", r.remaining)
	}
	if &r.leases[0].result[0] != &first[0] {
		t.Fatal("duplicate delivery replaced the winning chunk")
	}
	if mDuplicates.Value() != dupBefore+1 {
		t.Fatal("duplicate delivery was not counted")
	}
	if r.ctx.Err() != nil {
		t.Fatal("run completed with a lease still open")
	}
}

// TestSlowWorkerLeaseReassigned: a worker slower than the lease TTL gets
// its lease speculatively reassigned to a healthy worker; the run
// completes byte-identically, and the slow-but-healthy original neither
// burns the lease's attempt cap nor forces a local fallback.
func TestSlowWorkerLeaseReassigned(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 600
		rngSeed   = 13
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	// Every lease takes ~30ms (so the run as a whole outlives the slow
	// worker's stall — a duplicate can only be observed while the run is
	// still open; once the final lease lands, losing RPCs are cancelled).
	// Worker A additionally stalls its first generate long enough to
	// blow the TTL, then delivers anyway — the classic "not dead, just
	// slow" replica.
	pace := func(r *http.Request, d time.Duration) bool {
		select {
		case <-time.After(d):
			return true
		case <-r.Context().Done():
			return false
		}
	}
	var stalled atomic.Bool
	slow := NewWorker(testSampler(t, graphN, graphSeed))
	slowSrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathGenerate {
			d := 30 * time.Millisecond
			if stalled.CompareAndSwap(false, true) {
				d = 200 * time.Millisecond
			}
			if !pace(r, d) {
				return
			}
		}
		slow.ServeHTTP(rw, r)
	}))
	t.Cleanup(slowSrv.Close)
	fast := NewWorker(testSampler(t, graphN, graphSeed))
	fastSrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathGenerate && !pace(r, 30*time.Millisecond) {
			return
		}
		fast.ServeHTTP(rw, r)
	}))
	t.Cleanup(fastSrv.Close)

	cfg := quietConfig([]string{fastSrv.URL, slowSrv.URL})
	cfg.LeaseTTL = 60 * time.Millisecond
	coord := NewCoordinator(cfg)

	reassignedBefore := mLeasesReassigned.Value()
	localBefore := mLeasesLocal.Value()
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, count, rng.New(rngSeed), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("speculative reassignment changed the merged bytes")
	}
	if c.Count() != count {
		t.Fatalf("merged %d RR sets, want %d — duplicate delivery was merged", c.Count(), count)
	}
	if mLeasesReassigned.Value() == reassignedBefore {
		t.Fatal("slow lease was never reassigned; TTL watchdog inert")
	}
	if mLeasesLocal.Value() != localBefore {
		t.Fatal("speculative reassignments burned the lease's attempt cap and forced a local fallback")
	}
}

// TestTornResponsesRetriedViaCRC: a transport that tears response bodies
// produces CRC failures, which the coordinator treats as retryable —
// the run completes with correct bytes.
func TestTornResponsesRetriedViaCRC(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 400
		rngSeed   = 17
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	cfg := quietConfig(startWorkers(t, 2, graphN, graphSeed))
	cfg.Client = &http.Client{Transport: faultinject.NewTornBodyRoundTripper(nil, 5, 0.3)}
	cfg.FailThreshold = 100 // tears are transport faults, not the workers' fault
	cfg.MaxLeaseAttempts = 50
	coord := NewCoordinator(cfg)

	failBefore := mRPCFailures.Value()
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, count, rng.New(rngSeed), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("torn transfers corrupted the merged collection")
	}
	if mRPCFailures.Value() == failBefore {
		t.Fatal("no RPC failures recorded; the torn-body injector never fired")
	}
}

// TestLeaseFrameForOtherGraphRetried: a worker that passes the replica
// probe but answers leases with well-formed frames for another node count
// fails those leases like torn ones; the run completes byte-identically
// instead of panicking in the merge.
func TestLeaseFrameForOtherGraphRetried(t *testing.T) {
	s := testSampler(t, 200, 5)
	want := localBytes(t, s, 300, 3)
	honest := NewWorker(s)
	other := testSampler(t, 300, 5)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != pathGenerate {
			honest.ServeHTTP(rw, r)
			return
		}
		var req generateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rrset.WriteBatch(rw, rrset.SampleAt(other, req.Count, rng.New(3), req.StartID, 1)...)
	}))
	t.Cleanup(srv.Close)

	failBefore := mRPCFailures.Value()
	c := rrset.NewCollection(s.Graph().N())
	NewCoordinator(quietConfig([]string{srv.URL})).Generate(c, s, 300, rng.New(3), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("frames for another graph size corrupted the merged collection")
	}
	if mRPCFailures.Value() == failBefore {
		t.Fatal("frames for another graph size were not counted as failed leases")
	}
}

// TestFingerprintMismatchExcluded: a worker holding the wrong graph is
// never leased work; with only wrong workers the coordinator degrades.
func TestFingerprintMismatchExcluded(t *testing.T) {
	const count = 200
	s := testSampler(t, 300, 42)
	want := localBytes(t, s, count, 21)

	// wrongURLs workers replicate a different graph.
	wrongURLs := startWorkers(t, 2, 300, 1234)
	rightURLs := startWorkers(t, 1, 300, 42)

	t.Run("mixed-fleet-uses-only-matching", func(t *testing.T) {
		coord := NewCoordinator(quietConfig(append(append([]string{}, wrongURLs...), rightURLs...)))
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, count, rng.New(21), 0)
		if !bytes.Equal(collBytes(t, c), want) {
			t.Fatal("mixed fleet diverged")
		}
	})
	t.Run("all-mismatched-degrades", func(t *testing.T) {
		before := mDegraded.Value()
		coord := NewCoordinator(quietConfig(wrongURLs))
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, count, rng.New(21), 0)
		if !bytes.Equal(collBytes(t, c), want) {
			t.Fatal("all-mismatched fleet diverged")
		}
		if mDegraded.Value() != before+1 {
			t.Fatal("all-mismatched fleet did not degrade")
		}
	})
}

// TestWorkerRefuses412: the worker-side guard — a lease naming a foreign
// fingerprint, or the right fingerprint under the wrong diffusion model,
// is refused with 412 and no RR sets are computed.
func TestWorkerRefuses412(t *testing.T) {
	w := NewWorker(testSampler(t, 100, 7))
	srv := httptest.NewServer(w)
	defer srv.Close()

	post := func(t *testing.T, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+pathGenerate, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("wrong-fingerprint", func(t *testing.T) {
		body := `{"fingerprint":"deadbeef","model":"IC","key0":"1","key1":"2","start_id":0,"count":10}`
		if code := post(t, body); code != http.StatusPreconditionFailed {
			t.Fatalf("status = %d, want 412", code)
		}
	})
	t.Run("wrong-model", func(t *testing.T) {
		body := `{"fingerprint":"` + w.Fingerprint() + `","model":"LT","key0":"1","key1":"2","start_id":0,"count":10}`
		if code := post(t, body); code != http.StatusPreconditionFailed {
			t.Fatalf("status = %d, want 412", code)
		}
	})
	t.Run("wrong-epoch", func(t *testing.T) {
		// Right content, wrong chain position: a coordinator one mutation
		// batch ahead of this replica must not get RR sets from it.
		body := `{"fingerprint":"` + w.Fingerprint() + `","model":"IC","epoch":1,"lineage":"deadbeef","key0":"1","key1":"2","start_id":0,"count":10}`
		if code := post(t, body); code != http.StatusPreconditionFailed {
			t.Fatalf("status = %d, want 412", code)
		}
	})
	t.Run("matching-identity-accepted", func(t *testing.T) {
		body := `{"fingerprint":"` + w.Fingerprint() + `","model":"IC","epoch":0,"lineage":"` + w.Fingerprint() + `","key0":"1","key1":"2","start_id":0,"count":10}`
		if code := post(t, body); code != http.StatusOK {
			t.Fatalf("status = %d, want 200", code)
		}
	})
}

// TestWorkerRoutesCarryMethods: a wrong method on a worker route is a 405
// naming the route's method in Allow.
func TestWorkerRoutesCarryMethods(t *testing.T) {
	srv := httptest.NewServer(NewWorker(testSampler(t, 100, 7)))
	defer srv.Close()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, pathGenerate, http.MethodPost},
		{http.MethodPost, pathInfo, http.MethodGet},
		{http.MethodPost, "/status", http.MethodGet},
	} {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(resp.Header.Get("Allow"), c.allow) {
			t.Fatalf("%s %s: status %d, Allow %q; want 405 naming %s", c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.allow)
		}
	}
}

// TestModelMismatchExcluded: a worker replicating the right graph under
// the wrong diffusion model must never be leased work — its RR sets would
// merge cleanly and silently corrupt the alpha guarantee. With only
// wrong-model workers the coordinator degrades to local sampling.
func TestModelMismatchExcluded(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 200
		rngSeed   = 23
	)
	s := testSampler(t, graphN, graphSeed) // IC
	want := localBytes(t, s, count, rngSeed)

	// Same graph, LT model: identical fingerprint, different instance.
	ltWorker := func() string {
		g, err := gen.PreferentialAttachment(graphN, 8, 0.15, graphSeed)
		if err != nil {
			t.Fatal(err)
		}
		g, err = graph.Reweight(g, graph.WeightedCascade, 0, graphSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(rrset.NewSampler(g, diffusion.LT))
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		return srv.URL
	}

	t.Run("mixed-fleet-uses-only-matching-model", func(t *testing.T) {
		urls := append(startWorkers(t, 1, graphN, graphSeed), ltWorker())
		coord := NewCoordinator(quietConfig(urls))
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, count, rng.New(rngSeed), 0)
		if !bytes.Equal(collBytes(t, c), want) {
			t.Fatal("fleet with a wrong-model worker diverged from local generation")
		}
	})
	t.Run("all-wrong-model-degrades", func(t *testing.T) {
		before := mDegraded.Value()
		noReplicaBefore := mNoReplica.Value()
		coord := NewCoordinator(quietConfig([]string{ltWorker()}))
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, count, rng.New(rngSeed), 0)
		if !bytes.Equal(collBytes(t, c), want) {
			t.Fatal("all-wrong-model fleet diverged from local generation")
		}
		if mDegraded.Value() != before+1 {
			t.Fatal("all-wrong-model fleet did not degrade")
		}
		if mNoReplica.Value() != noReplicaBefore+1 {
			t.Fatal("degrade was not attributed to a missing replica")
		}
	})
}

// TestPermanentDegradeLogsOnce: a session whose (graph, model) no worker
// replicates is a configuration, not an incident — it degrades on every
// Generate but logs and emits the degradation only once, so a multi-graph
// daemon does not drown real outages in noise.
func TestPermanentDegradeLogsOnce(t *testing.T) {
	s := testSampler(t, 300, 42)
	wrongURLs := startWorkers(t, 1, 300, 1234) // healthy, wrong graph

	var mu sync.Mutex
	var degradedLines int
	cfg := quietConfig(wrongURLs)
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "DEGRADED") {
			mu.Lock()
			degradedLines++
			mu.Unlock()
		}
	}
	coord := NewCoordinator(cfg)

	before := mDegraded.Value()
	for i := 0; i < 3; i++ {
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, 100, rng.New(uint64(i+1)), 0)
		if c.Count() != 100 {
			t.Fatalf("degraded generation %d produced %d sets", i, c.Count())
		}
	}
	if mDegraded.Value() != before+3 {
		t.Fatalf("fleet_degraded_generations_total advanced by %d, want 3", mDegraded.Value()-before)
	}
	mu.Lock()
	defer mu.Unlock()
	if degradedLines != 1 {
		t.Fatalf("DEGRADED logged %d times across 3 generations, want once", degradedLines)
	}
}

// lineCounter is a Config.Logf that counts the lines whose format
// contains substr.
type lineCounter struct {
	mu     sync.Mutex
	substr string
	n      int
}

func (lc *lineCounter) logf(format string, args ...any) {
	if strings.Contains(format, lc.substr) {
		lc.mu.Lock()
		lc.n++
		lc.mu.Unlock()
	}
}

func (lc *lineCounter) count() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.n
}

// TestLaggingDegradeLogsOnce: a worker left on epoch 0 of a mutating graph
// degrades every later epoch's Generate, and every epoch is a new replica;
// the DEGRADED line is logged once, because what the workers hold has not
// changed, while the counters still count every Generate.
func TestLaggingDegradeLogsOnce(t *testing.T) {
	s := testSampler(t, 300, 42)
	urls := startWorkers(t, 1, 300, 42) // epoch 0 of the same graph
	lines := &lineCounter{substr: "DEGRADED"}
	cfg := quietConfig(urls)
	cfg.Logf = lines.logf
	coord := NewCoordinator(cfg)

	before := mNoReplica.Value()
	g := s.Graph()
	var pick graph.Edge
	g.Edges(func(e graph.Edge) bool { pick = e; return false })
	for i := 0; i < 10; i++ {
		var err error
		g, err = g.WithMutations([]graph.Mutation{{Op: graph.OpSetWeight, From: pick.From, To: pick.To, P: 0.01 * float32(i+1)}})
		if err != nil {
			t.Fatal(err)
		}
		c := rrset.NewCollection(g.N())
		coord.Generate(c, rrset.NewSampler(g, diffusion.IC), 50, rng.New(uint64(i+1)), 0)
		if c.Count() != 50 {
			t.Fatalf("epoch %d: degraded generation produced %d sets", g.Epoch(), c.Count())
		}
	}
	if got := mNoReplica.Value() - before; got != 10 {
		t.Fatalf("fleet_no_replica_generations_total advanced by %d, want 10", got)
	}
	if n := lines.count(); n != 1 {
		t.Fatalf("DEGRADED logged %d times across 10 epochs, want once", n)
	}
}

// TestExclusionLogsOncePerHeldReplica: a worker on graph A, with sessions
// on graphs B and C generating in turn (as the background sampler
// alternates them), logs its exclusion once, not once per Generate.
func TestExclusionLogsOncePerHeldReplica(t *testing.T) {
	urls := startWorkers(t, 1, 300, 1) // graph A
	lines := &lineCounter{substr: "excluded"}
	cfg := quietConfig(urls)
	cfg.Logf = lines.logf
	coord := NewCoordinator(cfg)

	samplers := []*rrset.Sampler{testSampler(t, 300, 2), testSampler(t, 300, 3)} // graphs B and C
	for i := 0; i < 6; i++ {
		s := samplers[i%2]
		c := rrset.NewCollection(s.Graph().N())
		coord.Generate(c, s, 50, rng.New(uint64(i+1)), 0)
	}
	if n := lines.count(); n != 1 {
		t.Fatalf("exclusion logged %d times across 6 Generates on two graphs, want once", n)
	}
}

// TestGenerateReturnsPromptlyAfterLastLease: once the final lease is
// delivered, Generate must return immediately — a losing speculative RPC
// still in flight on a wedged worker is cancelled, not waited out.
func TestGenerateReturnsPromptlyAfterLastLease(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 100
		rngSeed   = 31
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	// The wedged worker registers fine but stalls every generate far
	// longer than the test is willing to wait.
	wedged := NewWorker(testSampler(t, graphN, graphSeed))
	wedgedSrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathGenerate {
			// Drain the body first: the server only watches for client
			// disconnects (cancelling r.Context()) once the request body
			// is consumed, and the coordinator's cancel must cut this
			// stall short rather than stretch the test by 10s.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(10 * time.Second):
			case <-r.Context().Done():
				return
			}
		}
		wedged.ServeHTTP(rw, r)
	}))
	t.Cleanup(wedgedSrv.Close)

	cfg := quietConfig(append(startWorkers(t, 1, graphN, graphSeed), wedgedSrv.URL))
	cfg.ChunkSize = 50
	cfg.LeaseTTL = 100 * time.Millisecond // reassign the wedged lease quickly
	coord := NewCoordinator(cfg)

	start := time.Now()
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, count, rng.New(rngSeed), 0)
	elapsed := time.Since(start)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("generation with a wedged worker diverged from local")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Generate took %v; it waited out the wedged worker's RPC instead of cancelling it", elapsed)
	}
}

// TestHeartbeatReadmitsRecoveredWorker: a worker evicted for failures is
// re-admitted by the heartbeat prober once it answers again.
func TestHeartbeatReadmitsRecoveredWorker(t *testing.T) {
	const (
		graphN    = 200
		graphSeed = 8
	)
	s := testSampler(t, graphN, graphSeed)

	var down atomic.Bool
	w := NewWorker(testSampler(t, graphN, graphSeed))
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(rw, "crashed", http.StatusServiceUnavailable)
			return
		}
		w.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	cfg := quietConfig([]string{srv.URL})
	cfg.FailThreshold = 1
	cfg.HeartbeatEvery = 20 * time.Millisecond
	coord := NewCoordinator(cfg)
	coord.Start()
	defer coord.Close()

	// Healthy first: a normal fleet generation.
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, 100, rng.New(2), 0)
	if c.Count() != 100 {
		t.Fatalf("healthy generation produced %d sets", c.Count())
	}

	// Take the worker down; the next generation evicts it and degrades.
	down.Store(true)
	evictBefore := mEvictions.Value()
	c2 := rrset.NewCollection(s.Graph().N())
	coord.Generate(c2, s, 100, rng.New(2), 0)
	if c2.Count() != 100 {
		t.Fatalf("generation against a dead worker produced %d sets", c2.Count())
	}
	if mEvictions.Value() == evictBefore {
		t.Fatal("dead worker was not evicted")
	}

	// Bring it back and wait for the prober to re-admit it.
	down.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("worker never re-admitted by heartbeat")
		}
		if len(coord.eligible(replicaOf(s))) == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGenerateAppendsToExistingCollection: leases must offset their seed
// ids by the collection's current count, exactly like rrset.Generate.
func TestGenerateAppendsToExistingCollection(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
	)
	s := testSampler(t, graphN, graphSeed)
	base := rng.New(11)
	local := rrset.NewCollection(s.Graph().N())
	rrset.Generate(local, s, 150, base, 0)
	rrset.Generate(local, s, 130, base, 0)
	want := collBytes(t, local)

	coord := NewCoordinator(quietConfig(startWorkers(t, 2, graphN, graphSeed)))
	c := rrset.NewCollection(s.Graph().N())
	fleetBase := rng.New(11)
	coord.Generate(c, s, 150, fleetBase, 0)
	coord.Generate(c, s, 130, fleetBase, 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("second fleet batch did not continue the seed-id sequence")
	}
}

// TestEpochMismatchExcluded: a worker whose replica has the same CONTENT
// as the coordinator's graph but sits at a different epoch on the
// mutation chain must never be leased work. This is the one identity gap
// a content fingerprint cannot close — insert an edge and delete it again
// and the bytes are identical while the sample stream is not (the epoch
// is folded into the graph's identity precisely because RR regeneration
// after each batch re-randomizes the invalidated sets' traces against a
// different structure mid-history). With only stale-epoch workers the
// coordinator degrades to local sampling and stays byte-identical.
func TestEpochMismatchExcluded(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 200
		rngSeed   = 31
	)
	base := testSampler(t, graphN, graphSeed)

	// Round-trip a mutation: +edge then -edge. Same content fingerprint as
	// the base graph, epoch 2, different lineage.
	var pick graph.Edge
	base.Graph().Edges(func(e graph.Edge) bool { pick = e; return false })
	var from, to int32 = pick.From, pick.To
	g1, err := base.Graph().WithMutations([]graph.Mutation{{Op: graph.OpEdgeDelete, From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g1.WithMutations([]graph.Mutation{{Op: graph.OpEdgeInsert, From: from, To: to, P: pick.P}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != base.Graph().Fingerprint() {
		t.Fatal("round-trip mutation changed the content fingerprint; test premise broken")
	}
	if g2.Epoch() != 2 || g2.EpochLineage() == base.Graph().EpochLineage() {
		t.Fatalf("epoch chain not advanced: epoch %d", g2.Epoch())
	}
	s2 := rrset.NewSampler(g2, diffusion.IC)

	// Workers replicate the base (epoch-0) graph; the coordinator samples
	// the epoch-2 graph. Identical fingerprints, different epochs.
	urls := startWorkers(t, 2, graphN, graphSeed)
	before := mDegraded.Value()
	coord := NewCoordinator(quietConfig(urls))
	c := rrset.NewCollection(g2.N())
	coord.Generate(c, s2, count, rng.New(rngSeed), 0)
	if mDegraded.Value() != before+1 {
		t.Fatal("stale-epoch fleet did not degrade to local sampling")
	}

	want := localBytes(t, s2, count, rngSeed)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("degraded generation diverged from local ground truth")
	}

	// Sanity: the same fleet IS eligible for the epoch-0 sampler.
	if n := len(coord.eligible(replicaOf(base))); n != 2 {
		t.Fatalf("eligible for base epoch = %d, want 2", n)
	}
}

// TestAttemptCapSamplesLocally: a worker that answers its probe but fails
// every lease stays below FailThreshold, so it is never evicted; each
// lease is sampled in-process once it has used MaxLeaseAttempts, and the
// merged bytes equal local generation.
func TestAttemptCapSamplesLocally(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 100
		rngSeed   = 37
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	w := NewWorker(testSampler(t, graphN, graphSeed))
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathGenerate {
			http.Error(rw, "sampling failed", http.StatusInternalServerError)
			return
		}
		w.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)

	cfg := quietConfig([]string{srv.URL})
	cfg.FailThreshold = 100
	cfg.MaxLeaseAttempts = 2
	coord := NewCoordinator(cfg)

	localBefore := mLeasesLocal.Value()
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, count, rng.New(rngSeed), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("leases sampled in-process at the attempt cap diverged from local generation")
	}
	if got, leases := mLeasesLocal.Value()-localBefore, int64(count/cfg.ChunkSize); got != leases {
		t.Fatalf("fleet_leases_local_total rose by %d, want %d (every lease)", got, leases)
	}
}

// TestAllWorkersEvictedMidRun: two workers each serve their first lease
// and then answer 503; with FailThreshold 1 both are evicted mid-run, and
// the leases still open are sampled in-process, so the merged bytes equal
// local generation.
func TestAllWorkersEvictedMidRun(t *testing.T) {
	const (
		graphN    = 300
		graphSeed = 42
		count     = 400
		rngSeed   = 41
	)
	s := testSampler(t, graphN, graphSeed)
	want := localBytes(t, s, count, rngSeed)

	urls := make([]string, 2)
	for i := range urls {
		var served atomic.Int64
		w := NewWorker(testSampler(t, graphN, graphSeed))
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathGenerate && served.Add(1) > 1 {
				http.Error(rw, "shutting down", http.StatusServiceUnavailable)
				return
			}
			w.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cfg := quietConfig(urls)
	cfg.FailThreshold = 1
	coord := NewCoordinator(cfg)

	evictBefore, localBefore := mEvictions.Value(), mLeasesLocal.Value()
	c := rrset.NewCollection(s.Graph().N())
	coord.Generate(c, s, count, rng.New(rngSeed), 0)
	if !bytes.Equal(collBytes(t, c), want) {
		t.Fatal("generation whose workers were all evicted mid-run diverged from local generation")
	}
	if got := mEvictions.Value() - evictBefore; got != 2 {
		t.Fatalf("fleet_workers_evicted_total rose by %d, want 2", got)
	}
	if got, open := mLeasesLocal.Value()-localBefore, int64(count/cfg.ChunkSize-2); got != open {
		t.Fatalf("fleet_leases_local_total rose by %d, want %d (every lease the two workers did not serve)", got, open)
	}
}

// TestBackoffDelayBounded: the base pause after a lease's failure doubles
// from 50 ms and stops at 1 s for every attempt count a Config allows —
// no shift overflow into a wrapped, negative or zero delay.
func TestBackoffDelayBounded(t *testing.T) {
	var prev time.Duration
	for attempt := 1; attempt <= 64; attempt++ {
		d := backoffDelay(attempt)
		if d < 50*time.Millisecond || d > time.Second || d < prev {
			t.Fatalf("backoffDelay(%d) = %v after %v; want within [50ms, 1s] and never decreasing", attempt, d, prev)
		}
		prev = d
	}
}

// TestWorkerClampsLeaseWorkers: a lease's workers hint beyond the worker's
// GOMAXPROCS is capped there. The hint changes only the speed, so the
// chunk equals the one a single-worker lease returns.
func TestWorkerClampsLeaseWorkers(t *testing.T) {
	w := NewWorker(testSampler(t, 300, 42))
	srv := httptest.NewServer(w)
	defer srv.Close()
	chunk := func(workers int) []byte {
		t.Helper()
		body, err := json.Marshal(generateRequest{replica: w.replica, Key0: "1", Key1: "2", Count: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+pathGenerate, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("lease with workers %d: status %d, %v", workers, resp.StatusCode, err)
		}
		return out
	}
	if !bytes.Equal(chunk(1<<30), chunk(1)) {
		t.Fatal("a lease's workers hint changed the chunk bytes")
	}
}

// BenchmarkFleetGenerate times one batch of 16,384 RR sets on a
// 5,000-node graph generated locally and leased to two in-process workers
// (64 leases of 256), one sampling worker on each side, and the
// coordinator's share of the fleet run alone: decoding the 64 lease frames
// from memory and appending them. Each lease adds JSON, a loopback round
// trip and an OPIMR3 encode and decode with CRC, so local:fleet reads below
// 1; CI gates it to catch a dispatch loop that stalls, and gates
// local:merge above 1, the condition for the fleet to pay: a leased set
// must merge for less than it costs to sample.
func BenchmarkFleetGenerate(b *testing.B) {
	const count, width = 16384, 256
	s := testSampler(b, 5000, 42)
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := rrset.NewCollection(s.Graph().N())
			rrset.Generate(c, s, count, rng.New(7), 1)
		}
	})
	b.Run("fleet", func(b *testing.B) {
		cfg := quietConfig(nil)
		cfg.ChunkSize = width
		for i := 0; i < 2; i++ {
			srv := httptest.NewServer(NewWorker(testSampler(b, 5000, 42)))
			b.Cleanup(srv.Close)
			cfg.Workers = append(cfg.Workers, srv.URL)
		}
		coord := NewCoordinator(cfg)
		if n := len(coord.eligible(replicaOf(s))); n != 2 {
			b.Fatalf("%d eligible workers, want 2", n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := rrset.NewCollection(s.Graph().N())
			coord.Generate(c, s, count, rng.New(7), 1)
		}
	})
	b.Run("merge", func(b *testing.B) {
		var frames [][]byte
		for lo := 0; lo < count; lo += width {
			var buf bytes.Buffer
			if err := rrset.WriteBatch(&buf, rrset.SampleAt(s, width, rng.New(7), uint64(lo), 1)...); err != nil {
				b.Fatal(err)
			}
			frames = append(frames, buf.Bytes())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batches := make([]rrset.Batch, len(frames))
			for j, f := range frames {
				var err error
				if batches[j], err = rrset.ReadBatch(bytes.NewReader(f)); err != nil {
					b.Fatal(err)
				}
			}
			c := rrset.NewCollection(s.Graph().N())
			c.Append(1, batches...)
		}
	})
}
