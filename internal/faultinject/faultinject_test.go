package faultinject

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/rng"
)

func TestTornWriterTearsAtBoundary(t *testing.T) {
	var buf bytes.Buffer
	w := TornWriter(&buf, 5)
	n, err := w.Write([]byte("ab"))
	if n != 2 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	// Crosses the 5-byte boundary: 3 more bytes land, then ErrInjected.
	n, err = w.Write([]byte("cdefg"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: %d, %v", n, err)
	}
	if got := buf.String(); got != "abcde" {
		t.Fatalf("underlying bytes %q, want the 5-byte prefix", got)
	}
	// Every subsequent write fails without writing.
	if n, err = w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-tear write: %d, %v", n, err)
	}
}

// fixedDist returns a constant triggering set, counting rng draws to prove
// SlowDist forwards the source untouched.
type fixedDist struct{ calls int }

func (d *fixedDist) SampleTriggering(v int32, src *rng.Source, buf []int32) []int32 {
	d.calls++
	_ = src.Uint64()
	return append(buf[:0], v)
}

func TestSlowDistPreservesSamples(t *testing.T) {
	inner := &fixedDist{}
	slow := &SlowDist{Dist: inner, Delay: time.Millisecond}
	srcA, srcB := rng.New(1), rng.New(1)
	got := slow.SampleTriggering(3, srcA, nil)
	want := (&fixedDist{}).SampleTriggering(3, srcB, nil)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("wrapped sample %v, inner sample %v", got, want)
	}
	if srcA.Uint64() != srcB.Uint64() {
		t.Fatal("SlowDist consumed extra randomness")
	}
	if inner.calls != 1 {
		t.Fatalf("inner called %d times", inner.calls)
	}
}
