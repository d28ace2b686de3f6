package main

// Tracing for the traced pass (-trace 1). Every span is recorded by the
// benchmark's own code around its calls into the program: one root span per
// call (an HTTP request, a core.Maximize solve, a probe), a child span per
// HTTP request for the server's handler (a wrapper around the handler the
// harness mounts), and a child span per OPIM-C round (Options.OnRound). The
// untraced pass installs none of this, so the two passes differ exactly by
// the tracing overhead.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the client-side root span id to the server-side
// handler span.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Ids are 1-based
// positions in spans; 0 means "no span". A nil *tracer records nothing, so
// call sites need no branches for the untraced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Start: now, End: now})
	return int64(len(t.spans))
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known and returns its id.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans)) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return int64(len(t.spans))
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus its children's; the children of one span never overlap in
// this harness (rounds of one solve, or the one handler of one request).
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summarize() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		sum := out[s.Name]
		d := s.End - s.Start
		sum.Count++
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-childNS[s.ID]) / 1e9
		out[s.Name] = sum
	}
	return out
}

// writeJSONL writes one JSON object per span.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanTransport stamps the request's root span id into a header so the
// server-side wrapper can parent its handler span.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// handler wraps the server's handler in a "server.handler" span parented
// on the request's root span. Requests without a span (set-up traffic)
// pass through unrecorded.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin("server.handler", parent)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}
