package faultinject

import (
	"io"
	"net/http"
	"sync"

	"github.com/reprolab/opim/internal/rng"
)

// This file extends the Writer to the HTTP layer: round-trippers that
// drop or tear requests in flight, for chaos-testing the fleet transport
// (worker RPCs and their retry/reassignment machinery). Like the writer,
// every injector draws its faults from a seed-keyed rng.Source — never
// wall clock or global randomness — so a failing chaos test replays
// identically. Unlike the writer, round-trippers must be safe for
// concurrent use (the http.Client contract), so the seeded draws are
// mutex-guarded.

// FlakyRoundTripper fails each request outright with probability p —
// the connection refused, the packet lost, the proxy resetting. Failed
// requests never reach the underlying transport.
type FlakyRoundTripper struct {
	// Next is the underlying transport; nil means http.DefaultTransport.
	Next http.RoundTripper

	mu  sync.Mutex
	src *rng.Source
	p   float64
}

// NewFlakyRoundTripper returns a FlakyRoundTripper whose failure draws
// come from a source keyed by seed.
func NewFlakyRoundTripper(next http.RoundTripper, seed uint64, p float64) *FlakyRoundTripper {
	return &FlakyRoundTripper{Next: next, src: rng.New(seed), p: p}
}

// RoundTrip implements http.RoundTripper.
func (t *FlakyRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	fail := t.src.Float64() < t.p
	t.mu.Unlock()
	if fail {
		// The request may carry a body; close it like a real transport
		// failure would, so callers relying on Body cleanup don't leak.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, ErrInjected
	}
	return transport(t.Next).RoundTrip(req)
}

// TornBodyRoundTripper lets requests through but tears the response
// body: with probability p the body is truncated after a seed-chosen
// fraction of reads and the next read returns ErrInjected — the TCP
// connection dying mid-response. The status line and headers arrive
// intact, so only integrity checks on the payload (the OPIMR3 CRC
// trailer, say) can tell a torn delivery from a complete one.
type TornBodyRoundTripper struct {
	// Next is the underlying transport; nil means http.DefaultTransport.
	Next http.RoundTripper

	mu  sync.Mutex
	src *rng.Source
	p   float64
}

// NewTornBodyRoundTripper returns a TornBodyRoundTripper tearing
// response bodies with probability p, keyed by seed.
func NewTornBodyRoundTripper(next http.RoundTripper, seed uint64, p float64) *TornBodyRoundTripper {
	return &TornBodyRoundTripper{Next: next, src: rng.New(seed), p: p}
}

// RoundTrip implements http.RoundTripper.
func (t *TornBodyRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := transport(t.Next).RoundTrip(req)
	if err != nil {
		return resp, err
	}
	t.mu.Lock()
	tear := t.src.Float64() < t.p
	frac := t.src.Float64() // drawn unconditionally to keep the stream aligned
	t.mu.Unlock()
	if tear {
		resp.Body = &tornBody{rc: resp.Body, remaining: tornReadBudget(resp.ContentLength, frac)}
	}
	return resp, nil
}

// tornReadBudget picks how many payload bytes survive before the tear.
// With a known Content-Length the cut lands strictly inside the payload;
// for chunked responses it falls back to a fraction of a nominal window.
func tornReadBudget(contentLength int64, frac float64) int64 {
	if contentLength > 0 {
		return int64(frac * float64(contentLength))
	}
	const nominal = 64 << 10
	return int64(frac * nominal)
}

// tornBody forwards reads until the budget is exhausted, then returns
// ErrInjected. A torn final read still delivers its prefix, mirroring
// TornWriter's partial-prefix semantics.
type tornBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF && b.remaining > 0 {
		// The true body ended before the budget: pass EOF through
		// untouched — this response happened not to be torn after all.
		return n, io.EOF
	}
	if err == nil && b.remaining <= 0 {
		return n, ErrInjected
	}
	return n, err
}

func (b *tornBody) Close() error { return b.rc.Close() }

func transport(t http.RoundTripper) http.RoundTripper {
	if t != nil {
		return t
	}
	return http.DefaultTransport
}
