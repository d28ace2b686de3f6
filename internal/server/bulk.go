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

	// Phase 2: start. Each entry pays the session's admission token, like
	// POST /sessions/{id}/start would.
	for _, id := range req.Start {
		resp.Results = append(resp.Results, s.bulkGated("start", id, func(sess *Session) BulkResult {
			res := BulkResult{Op: "start", ID: id, Status: http.StatusOK}
			if status, msg := s.startSession(sess); status != 0 {
				res.Status = status
				res.Error = msg
			}
			return res
		}))
	}

	// Phase 3: advance, under bounded parallelism — results land at their
	// input index, so the response order is deterministic. The request
	// context (plus the configured request deadline) covers the whole
	// phase; a deadline answers 503 with partial progress kept per session.
	if len(req.Advance) > 0 {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		results := make([]BulkResult, len(req.Advance))
		var wg sync.WaitGroup
		sem := make(chan struct{}, bulkAdvanceWorkers)
		for i, adv := range req.Advance {
			wg.Add(1)
			go func(i int, adv BulkAdvance) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] = s.bulkGated("advance", adv.ID, func(sess *Session) BulkResult {
					res := BulkResult{Op: "advance", ID: adv.ID, Status: http.StatusOK}
					switch status, msg := s.advanceSession(ctx, sess, adv.Count); status {
					case 0:
						res.NumRR = sess.statNumRR.Load()
					case statusClientGone:
						// The bulk connection is gone; the response will never
						// be read, but fill honest per-op state anyway.
						res.Status = http.StatusServiceUnavailable
						res.Error = "request cancelled"
					default:
						res.Status = status
						res.Error = msg
					}
					return res
				})
			}(i, adv)
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

// bulkGated resolves a session id and charges its admission token, then
// runs op. Unknown ids answer 404, rate-limited tenants 429 with the
// token wait as Retry-After semantics folded into the per-op result.
func (s *Server) bulkGated(opName, id string, op func(*Session) BulkResult) BulkResult {
	sess := s.lookup(id)
	if sess == nil {
		return BulkResult{Op: opName, ID: id, Status: http.StatusNotFound,
			Error: fmt.Sprintf("unknown session %q", id)}
	}
	if ok, wait := takeSessionToken(sess); !ok {
		mAdmissionRatelimited.Inc()
		sess.mShed.Inc()
		return BulkResult{Op: opName, ID: id, Status: http.StatusTooManyRequests,
			Error: fmt.Sprintf("session %q over its request rate; retry in %ds", id, ceilSeconds(wait))}
	}
	return op(sess)
}
