package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// loadGraph builds the graph a GraphSpec names, exactly as opimd's POST
// /graphs does.
func loadGraph(spec cliutil.GraphSpec) (*rrset.Sampler, error) {
	g, model, err := spec.Load()
	if err != nil {
		return nil, err
	}
	return rrset.NewSampler(g, model), nil
}

// daemon is an in-process opimd: server.New behind httptest, configured
// with opimd's flag defaults. The periodic checkpointer is not started (its
// timer would fire at a different point of every run).
type daemon struct {
	srv   *server.Server
	ts    *httptest.Server
	ckDir string
}

// startDaemon serves sampler's graph as the "default" graph, with opimd's
// default session on it. ckDir, when set, must be a fresh directory and is
// removed by close.
func startDaemon(sampler *rrset.Sampler, spec cliutil.GraphSpec, ckDir string, tr *tracer) (*daemon, error) {
	def, err := core.NewOnline(sampler, core.Options{
		K: 50, Delta: 1 / float64(sampler.Graph().N()), Variant: core.Plus, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(def, server.Config{
		Batch:            10000,
		MaxRR:            1 << 26,
		RequestTimeout:   time.Minute,
		MaxInflight:      64,
		MaxQueueWait:     500 * time.Millisecond,
		CheckpointDir:    ckDir,
		DefaultGraphSpec: spec.String(),
	})
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	return &daemon{srv: srv, ts: httptest.NewServer(h), ckDir: ckDir}, nil
}

// client returns a server.Client with a connection of its own that never
// retries: every 409, 429 or 503 is a failed operation.
func (d *daemon) client(tr *tracer) *server.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = spanTransport{rt}
	}
	return &server.Client{
		BaseURL:    d.ts.URL,
		HTTPClient: &http.Client{Transport: rt, Timeout: 2 * time.Minute},
		MaxRetries: -1,
	}
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Stop()
	if d.ckDir != "" {
		os.RemoveAll(d.ckDir)
	}
}

// subSeed derives an independent 64-bit seed for one input of the script
// from the run's seed and the input's coordinates.
func subSeed(seed uint64, ids ...uint64) uint64 {
	s := rng.New(seed)
	for _, id := range ids {
		s = s.Split(id)
	}
	return s.Uint64()
}

// distinct reports whether seeds has k distinct members.
func distinct(seeds []int32, k int) bool {
	seen := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		seen[s] = true
	}
	return len(seeds) == k && len(seen) == k
}

func idOf(prefix string, ids ...int) string {
	s := prefix
	for _, id := range ids {
		s += fmt.Sprintf("-%d", id)
	}
	return s
}
