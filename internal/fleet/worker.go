// Package fleet distributes RR-set generation across a fleet of stateless
// worker processes while preserving the library's determinism invariant:
// the merged collection is byte-identical to a single-process run, for any
// worker count, any interleaving of deliveries, and any pattern of worker
// failures.
//
// The design splits cleanly because the RNG does: RR set i of a batch is
// driven by base.Split(startID+i), and Split depends only on the parent's
// seeding snapshot (rng.Key), never its position. The coordinator therefore
// partitions a batch into contiguous seed-range leases, ships each lease as
// (key, startID, count) to a worker, and merges the returned chunk
// collections in lease order. Which machine computed a chunk is
// unobservable in the output.
//
// Delivery is at-least-once (failed or slow leases are reassigned, possibly
// racing the original), merge is exactly-once (first completed delivery of
// a lease wins; duplicates are discarded and counted). Torn or corrupted
// transfers are caught by the OPIMR3 CRC trailer and retried. A fleet with
// zero healthy workers degrades to local in-process sampling — generation
// never fails, it only gets slower and louder (metrics + event + log).
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// Wire paths of the worker protocol (documented in docs/API.md).
const (
	pathInfo     = "/worker/info"
	pathGenerate = "/worker/generate"
)

// maxGenerateBody bounds the generate request body; requests are a few
// hundred bytes, so anything larger is garbage.
const maxGenerateBody = 1 << 16

var (
	mWorkerBatches   = obs.Default().Counter("fleet_worker_batches_total")
	mWorkerRRSets    = obs.Default().Counter("fleet_worker_rrsets_total")
	mWorkerRefusals  = obs.Default().Counter("fleet_worker_refusals_total")
	mWorkerGenTimer  = obs.Default().Timer("fleet_worker_generate_seconds")
	mWorkerBadableRq = obs.Default().Counter("fleet_worker_bad_requests_total")
)

// infoResponse is the body of GET /worker/info.
type infoResponse struct {
	// Fingerprint is the content fingerprint of the worker's graph
	// replica (graph.Fingerprint). The coordinator refuses to lease work
	// to a worker whose fingerprint differs from the session graph's.
	Fingerprint string `json:"fingerprint"`
	// Epoch and Lineage place the replica on its graph's mutation epoch
	// chain (graph.EpochLineage): a worker still holding the pre-mutation
	// replica is excluded until it restarts on the mutated graph.
	Epoch   int64  `json:"epoch"`
	Lineage string `json:"lineage"`
	// N is the replica's node count (a cheap cross-check and a useful
	// human diagnostic when fingerprints differ).
	N int32 `json:"n"`
	// Model names the diffusion model the worker samples under.
	Model string `json:"model"`
}

// generateRequest is the body of POST /worker/generate: one seed-range
// lease. Key0/Key1 carry the coordinator's base-source seeding snapshot
// (rng.Source.Key) as hex strings — uint64 values do not survive JSON
// number round-trips above 2^53.
type generateRequest struct {
	// Fingerprint is the graph the coordinator believes it is sampling
	// on. A mismatch is refused with 412 rather than computing RR sets
	// on the wrong influence instance.
	Fingerprint string `json:"fingerprint"`
	// Model is the diffusion model the coordinator samples under. Same
	// graph + different model is a different influence instance, so a
	// mismatch is refused with 412 exactly like a fingerprint mismatch.
	Model string `json:"model"`
	// Epoch and Lineage pin the lease to a position on the graph's
	// mutation epoch chain. The same base dataset at a different epoch is
	// a different graph; a replica that has not seen the mutation batch
	// refuses with 412 like any other identity mismatch.
	Epoch   int64  `json:"epoch"`
	Lineage string `json:"lineage"`
	Key0    string `json:"key0"`
	Key1    string `json:"key1"`
	// StartID is the global id of the lease's first RR set: set j of the
	// response was driven by Split(StartID+j).
	StartID uint64 `json:"start_id"`
	// Count is the number of RR sets to generate (the lease width).
	Count int `json:"count"`
	// Workers bounds the worker-local sampling parallelism (≤0 means
	// GOMAXPROCS). It cannot change the bytes produced, only the speed.
	Workers int `json:"workers"`
}

// Worker serves seed-range leases over HTTP from a local graph replica.
// It is stateless between requests: every lease carries the full seeding
// material needed to reproduce its RR sets, so a worker can be killed and
// replaced at any time without losing anything but in-flight effort.
type Worker struct {
	sampler *rrset.Sampler
	fp      string
	epoch   int64
	lineage string
	model   string
	mux     *http.ServeMux
}

// NewWorker returns a Worker serving RR-set leases sampled from s.
func NewWorker(s *rrset.Sampler) *Worker {
	g := s.Graph()
	w := &Worker{
		sampler: s,
		fp:      g.Fingerprint(),
		epoch:   g.Epoch(),
		lineage: g.EpochLineage(),
		model:   s.Model().String(),
	}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("GET "+pathInfo, w.handleInfo)
	w.mux.HandleFunc("POST "+pathGenerate, w.handleGenerate)
	// /status aliases /worker/info for health checks; a daemon has no
	// /status route (its session status lives under /sessions/{id}/).
	w.mux.HandleFunc("GET /status", w.handleInfo)
	return w
}

// Fingerprint returns the fingerprint of the worker's graph replica.
func (w *Worker) Fingerprint() string { return w.fp }

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			// A panicking lease must not take the worker down: report 500
			// and let the coordinator reassign.
			http.Error(rw, fmt.Sprintf("worker: internal error: %v", p), http.StatusInternalServerError)
		}
	}()
	w.mux.ServeHTTP(rw, r)
}

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(infoResponse{
		Fingerprint: w.fp,
		Epoch:       w.epoch,
		Lineage:     w.lineage,
		N:           w.sampler.Graph().N(),
		Model:       w.model,
	})
}

func (w *Worker) handleGenerate(rw http.ResponseWriter, r *http.Request) {
	var req generateRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxGenerateBody))
	if err := dec.Decode(&req); err != nil {
		mWorkerBadableRq.Inc()
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Fingerprint != w.fp {
		// Refuse rather than sample: RR sets from a different graph are
		// not wrong-looking, they are silently wrong.
		mWorkerRefusals.Inc()
		http.Error(rw, fmt.Sprintf("graph fingerprint mismatch: worker holds %s, lease expects %s",
			w.fp, req.Fingerprint), http.StatusPreconditionFailed)
		return
	}
	if req.Model != w.model {
		// Same graph under a different diffusion model is a different
		// influence instance; its RR sets are just as silently wrong.
		mWorkerRefusals.Inc()
		http.Error(rw, fmt.Sprintf("diffusion model mismatch: worker samples %s, lease expects %s",
			w.model, req.Model), http.StatusPreconditionFailed)
		return
	}
	if req.Epoch != w.epoch || req.Lineage != w.lineage {
		// The coordinator's graph mutated past (or behind) this replica:
		// identical base content at a different epoch samples different RR
		// sets. Refuse until the replica restarts on the right epoch.
		mWorkerRefusals.Inc()
		http.Error(rw, fmt.Sprintf("graph epoch mismatch: worker holds epoch %d (%s), lease expects epoch %d (%s)",
			w.epoch, w.lineage, req.Epoch, req.Lineage), http.StatusPreconditionFailed)
		return
	}
	k0, err0 := strconv.ParseUint(req.Key0, 16, 64)
	k1, err1 := strconv.ParseUint(req.Key1, 16, 64)
	if err0 != nil || err1 != nil || req.Count <= 0 || req.Count > 1<<24 {
		mWorkerBadableRq.Inc()
		http.Error(rw, "bad request: invalid key or count", http.StatusBadRequest)
		return
	}

	start := time.Now()
	cc := rrset.NewCollection(w.sampler.Graph().N())
	base := rng.NewFromKey(k0, k1)
	rrset.GenerateAt(cc, w.sampler, req.Count, base, req.StartID, req.Workers)
	mWorkerGenTimer.Observe(time.Since(start))

	// Serialize to memory first so the response carries a Content-Length;
	// a truncated transfer is then detectable at the TCP layer as well as
	// by the OPIMR3 CRC trailer.
	var buf bytes.Buffer
	if err := rrset.WriteCollection(&buf, cc); err != nil {
		http.Error(rw, "serialize: "+err.Error(), http.StatusInternalServerError)
		return
	}
	mWorkerBatches.Inc()
	mWorkerRRSets.Add(int64(req.Count))
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	rw.Write(buf.Bytes())
}
