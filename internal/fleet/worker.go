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
// (key, startID, count) to a worker, which samples it (rrset.SampleAt) and
// answers with one index-free OPIMR3 frame, and appends the leases'
// rrset.Batches in lease order once the last has arrived. Which machine
// sampled a lease is unobservable in the output.
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
	"runtime"
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

// replica identifies the influence instance a worker samples: the graph
// content (graph.Fingerprint), its position on the graph's mutation epoch
// chain (graph.EpochLineage), and the diffusion model. Two replicas sample
// the same RR sets only when all four fields agree: the same content at
// another epoch, or under another model, is a different instance whose RR
// sets merge cleanly and are silently wrong. Both wire bodies embed it, so
// its keys sit at the top level of the JSON.
type replica struct {
	Fingerprint string `json:"fingerprint"`
	Epoch       int64  `json:"epoch"`
	Lineage     string `json:"lineage"`
	Model       string `json:"model"`
}

func replicaOf(s *rrset.Sampler) replica {
	g := s.Graph()
	return replica{Fingerprint: g.Fingerprint(), Epoch: g.Epoch(), Lineage: g.EpochLineage(), Model: s.Model().String()}
}

func (r replica) String() string {
	return fmt.Sprintf("graph %.12s epoch %d (lineage %.12s) model %s", r.Fingerprint, r.Epoch, r.Lineage, r.Model)
}

// infoResponse is the body of GET /worker/info.
type infoResponse struct {
	replica
	// N is the replica's node count (a cheap cross-check and a useful
	// human diagnostic when fingerprints differ).
	N int32 `json:"n"`
}

// generateRequest is the body of POST /worker/generate: one seed-range
// lease. The replica is the instance the coordinator samples; a worker
// holding another refuses with 412 rather than computing RR sets on the
// wrong influence instance. Key0/Key1 carry the coordinator's base-source
// seeding snapshot (rng.Source.Key) as hex strings — uint64 values do not
// survive JSON number round-trips above 2^53.
type generateRequest struct {
	replica
	Key0 string `json:"key0"`
	Key1 string `json:"key1"`
	// StartID is the global id of the lease's first RR set: set j of the
	// response was driven by Split(StartID+j).
	StartID uint64 `json:"start_id"`
	// Count is the number of RR sets to generate (the lease width).
	Count int `json:"count"`
	// Workers bounds the worker-local sampling parallelism (≤0 means
	// GOMAXPROCS; the worker caps it at its own GOMAXPROCS). It cannot
	// change the bytes produced, only the speed.
	Workers int `json:"workers"`
}

// Worker serves seed-range leases over HTTP from a local graph replica.
// It is stateless between requests: every lease carries the full seeding
// material needed to reproduce its RR sets, so a worker can be killed and
// replaced at any time without losing anything but in-flight effort.
type Worker struct {
	sampler *rrset.Sampler
	replica replica
	mux     *http.ServeMux
}

// NewWorker returns a Worker serving RR-set leases sampled from s.
func NewWorker(s *rrset.Sampler) *Worker {
	w := &Worker{sampler: s, replica: replicaOf(s)}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("GET "+pathInfo, w.handleInfo)
	w.mux.HandleFunc("POST "+pathGenerate, w.handleGenerate)
	// /status aliases /worker/info for health checks; a daemon has no
	// /status route (its session status lives under /sessions/{id}/).
	w.mux.HandleFunc("GET /status", w.handleInfo)
	return w
}

// Fingerprint returns the fingerprint of the worker's graph replica.
func (w *Worker) Fingerprint() string { return w.replica.Fingerprint }

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
	json.NewEncoder(rw).Encode(infoResponse{replica: w.replica, N: w.sampler.Graph().N()})
}

func (w *Worker) handleGenerate(rw http.ResponseWriter, r *http.Request) {
	var req generateRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxGenerateBody))
	if err := dec.Decode(&req); err != nil {
		mWorkerBadableRq.Inc()
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.replica != w.replica {
		// Refuse rather than sample: RR sets from another graph, epoch or
		// model are not wrong-looking, they are silently wrong.
		mWorkerRefusals.Inc()
		http.Error(rw, fmt.Sprintf("replica mismatch: worker holds %v, lease expects %v", w.replica, req.replica),
			http.StatusPreconditionFailed)
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
	// More shards than this process can run only cost memory: each one
	// allocates n-entry scratch arrays.
	batches := rrset.SampleAt(w.sampler, req.Count, rng.NewFromKey(k0, k1), req.StartID, min(req.Workers, runtime.GOMAXPROCS(0)))
	mWorkerGenTimer.Observe(time.Since(start))

	// Serialize to memory first so the response carries a Content-Length;
	// a truncated transfer is then detectable at the TCP layer as well as
	// by the OPIMR3 CRC trailer.
	var buf bytes.Buffer
	if err := rrset.WriteBatch(&buf, batches...); err != nil {
		http.Error(rw, "serialize: "+err.Error(), http.StatusInternalServerError)
		return
	}
	mWorkerBatches.Inc()
	mWorkerRRSets.Add(int64(req.Count))
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	rw.Write(buf.Bytes())
}
