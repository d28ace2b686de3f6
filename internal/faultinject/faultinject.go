// Package faultinject provides deterministic, seed-keyed fault injectors
// for chaos-testing the daemon's robustness layer: a torn writer for
// exercising checkpoint recovery, and a latency injector for the RR-set
// sampler (a triggering-distribution wrapper) for exercising request
// deadlines and cancellation.
//
// Every injector is deterministic: faults are scheduled by byte offset,
// call count, or a seed-keyed rng.Source, never by wall clock or global
// randomness, so a chaos test that fails replays identically.
package faultinject

import (
	"errors"
	"io"
	"time"

	"github.com/reprolab/opim/internal/rng"
)

// ErrInjected is the error returned by every injected fault, so tests can
// distinguish injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Writer wraps an io.Writer with a deterministic tear (TornWriter). It is
// not safe for concurrent use, matching the io.Writer contract of the
// checkpoint path it wraps.
type Writer struct {
	w io.Writer

	failAfter int64 // fail once this many total bytes have been written
	written   int64
}

// TornWriter returns a Writer that writes through until failAfter total
// bytes have been written, then tears the write crossing the boundary:
// the prefix up to failAfter lands in the underlying writer and the call
// returns ErrInjected, as does every subsequent call. This is the disk
// running out, the process dying mid-write, or the kernel dropping dirty
// pages — a partial prefix of the intended bytes.
func TornWriter(w io.Writer, failAfter int64) *Writer {
	return &Writer{w: w, failAfter: failAfter}
}

// Write implements io.Writer with the configured tear.
func (fw *Writer) Write(p []byte) (int, error) {
	if fw.written >= fw.failAfter {
		return 0, ErrInjected
	}
	if rem := fw.failAfter - fw.written; int64(len(p)) > rem {
		n, err := fw.w.Write(p[:rem])
		fw.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	n, err := fw.w.Write(p)
	fw.written += int64(n)
	return n, err
}

// TriggeringDistribution mirrors rrset.TriggeringDistribution
// structurally, so SlowDist can wrap any triggering model without this
// package importing rrset.
type TriggeringDistribution interface {
	SampleTriggering(v int32, src *rng.Source, buf []int32) []int32
}

// SlowDist wraps a triggering distribution with a fixed latency per
// sampled triggering set, slowing RR-set generation without changing a
// single random draw: the wrapped distribution produces byte-identical
// samples. Chaos tests use it to make generation slow enough that
// cancellation and deadline paths are actually exercised. Safe for
// concurrent use iff the wrapped distribution is.
type SlowDist struct {
	// Dist is the wrapped distribution.
	Dist TriggeringDistribution
	// Delay is the sleep before each triggering-set sample.
	Delay time.Duration
}

// SampleTriggering implements the triggering-distribution contract.
func (d *SlowDist) SampleTriggering(v int32, src *rng.Source, buf []int32) []int32 {
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	return d.Dist.SampleTriggering(v, src, buf)
}
