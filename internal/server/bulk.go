package server

// Bulk session operations: POST /sessions/bulk lets a campaign frontend
// drive thousands of sessions — the repeated-campaign workload of online
// influence maximization — without one HTTP round-trip per session. One
// request carries create/start/advance/stop batches; the response reports
// one result per operation, in input order, with the same status codes
// the per-session endpoints would have answered.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// bulkMaxOps bounds the total operations in one bulk request; a frontend
// driving more sessions than this splits into several calls.
const bulkMaxOps = 10000

// bulkAdvanceWorkers bounds the parallelism of the advance phase: bulk
// must not let one request occupy every CPU the background sampler and
// other tenants need.
const bulkAdvanceWorkers = 4

// BulkAdvance names one session and how many RR sets to generate on it.
type BulkAdvance struct {
	ID    string `json:"id"`
	Count int    `json:"count"`
}

// BulkSessionsRequest is the POST /sessions/bulk body. Phases execute in
// the order create → start → advance → stop, so one call can create a
// fleet of sessions and immediately put it to work. Any phase may be
// empty.
type BulkSessionsRequest struct {
	// Create makes new sessions, exactly like POST /sessions per entry.
	Create []SessionSpec `json:"create,omitempty"`
	// Start joins each named session to background sampling.
	Start []string `json:"start,omitempty"`
	// Advance generates RR sets on each named session (bounded
	// parallelism; each entry pays the session's admission token).
	Advance []BulkAdvance `json:"advance,omitempty"`
	// Stop removes each named session from background sampling.
	Stop []string `json:"stop,omitempty"`
}

// BulkResult is the outcome of one bulk operation. Status carries the
// HTTP code the per-session endpoint would have answered (200 on
// success); Error is the message for non-200 statuses.
type BulkResult struct {
	Op     string `json:"op"` // "create", "start", "advance" or "stop"
	ID     string `json:"id"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// Info describes the session after a successful create.
	Info *SessionInfo `json:"info,omitempty"`
	// NumRR is the session's RR count after a successful advance.
	NumRR int64 `json:"num_rr,omitempty"`
}

// BulkSessionsResponse is the POST /sessions/bulk response body: one
// result per requested operation, phases concatenated in execution order
// (create, start, advance, stop), each phase in input order.
type BulkSessionsResponse struct {
	Results []BulkResult `json:"results"`
	// Failed counts results with a non-200 status. The HTTP status of the
	// bulk call itself is 200 whenever the request was well-formed — per-op
	// failures are data, not transport errors.
	Failed int `json:"failed"`
}

// handleSessionsBulk serves POST /sessions/bulk.
func (s *Server) handleSessionsBulk(w http.ResponseWriter, r *http.Request) {
	var req BulkSessionsRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	total := len(req.Create) + len(req.Start) + len(req.Advance) + len(req.Stop)
	if total == 0 {
		http.Error(w, "empty bulk request (want create, start, advance and/or stop)", http.StatusBadRequest)
		return
	}
	if total > bulkMaxOps {
		http.Error(w, fmt.Sprintf("bulk request has %d operations (limit %d); split the call", total, bulkMaxOps), http.StatusBadRequest)
		return
	}

	resp := BulkSessionsResponse{Results: make([]BulkResult, 0, total)}

	// Phase 1: create. Sequential — session creation is registry work, not
	// engine work, and must preserve input order for duplicate-id errors.
	for _, spec := range req.Create {
		res := BulkResult{Op: "create", ID: spec.ID, Status: http.StatusOK}
		sess, status, err := s.createSession(spec)
		if err != nil {
			res.Status = status
			res.Error = err.Error()
		} else {
			info := s.sessionInfo(sess)
			res.Info = &info
		}
		resp.Results = append(resp.Results, res)
	}

	// Phase 2: start. Each entry runs through runEngine, paying the
	// session's admission token like POST /sessions/{id}/start.
	for _, id := range req.Start {
		resp.Results = append(resp.Results, s.bulkEngine(r.Context(), "start", id, 0))
	}

	// Phase 3: advance, under bounded parallelism: bulkAdvanceWorkers
	// workers take the entries in input order, and each result lands at its
	// input index, so the response order is deterministic. One context —
	// the request's, bounded once by the configured deadline — covers the
	// whole phase, so the call cannot outlive it: an entry that starts past
	// the deadline answers 503, with partial progress kept per session.
	if len(req.Advance) > 0 {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		results := make([]BulkResult, len(req.Advance))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(bulkAdvanceWorkers, len(req.Advance)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(results)); i = next.Add(1) - 1 {
					results[i] = s.bulkEngine(ctx, "advance", req.Advance[i].ID, req.Advance[i].Count)
				}
			}()
		}
		wg.Wait()
		resp.Results = append(resp.Results, results...)
	}

	// Phase 4: stop. Not token-gated (a tenant over its rate must always be
	// able to stop its sessions), mirroring POST /sessions/{id}/stop.
	for _, id := range req.Stop {
		res := BulkResult{Op: "stop", ID: id, Status: http.StatusOK}
		if sess := s.lookup(id); sess == nil {
			res.Status = http.StatusNotFound
			res.Error = fmt.Sprintf("unknown session %q", id)
		} else {
			s.stopSession(sess)
		}
		resp.Results = append(resp.Results, res)
	}

	for _, res := range resp.Results {
		if res.Status != http.StatusOK {
			resp.Failed++
		}
	}
	writeJSON(w, resp)
}

// bulkEngine runs one start or advance entry (op "start", or "advance"
// of count RR sets) through runEngine and answers what the per-session
// endpoint would have: 404 for an unknown id, 400 for an advance count
// refused before any token is charged, else the critical section's
// status. A per-op 429 carries no header, so its message names the rate
// and the wait.
func (s *Server) bulkEngine(ctx context.Context, op, id string, count int) BulkResult {
	res := BulkResult{Op: op, ID: id, Status: http.StatusOK}
	sess := s.lookup(id)
	if sess == nil {
		res.Status, res.Error = http.StatusNotFound, fmt.Sprintf("unknown session %q", id)
		return res
	}
	critical := func(context.Context) (int, string) { s.startLocked(sess); return 0, "" }
	if op == "advance" {
		if err := checkCount(sess, count); err != nil {
			res.Status, res.Error = http.StatusBadRequest, err.Error()
			return res
		}
		critical = func(ctx context.Context) (int, string) { return s.advanceLocked(ctx, sess, count) }
	}
	if status, msg, _ := s.runEngine(ctx, sess, critical); status != 0 {
		res.Status, res.Error = status, msg
	} else if op == "advance" {
		res.NumRR = sess.statNumRR.Load()
	}
	return res
}
