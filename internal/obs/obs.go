// Package obs is the repository's observability layer: dependency-free
// metrics (atomic counters, gauges, timers) and structured events (a JSONL
// sink). The hot paths — rrset.Generate, core.Online/Maximize, the opimd
// HTTP server — report through it, so every experiment and every server
// run produces machine-readable evidence of the quantities the paper
// reasons about: θ (RR sets generated), Λ1/Λ2 (coverages), σˡ/σᵘ (spread
// bounds), and α (the instance-specific approximation guarantee).
//
// Metrics live in a Registry; Default() is the process-wide registry that
// the instrumented packages use and that opimd's GET /metrics exposes.
// Metric updates are a handful of atomic operations per *batch* (never per
// RR set), so instrumentation cost is unmeasurable next to sampling.
//
// See docs/OBSERVABILITY.md for the catalogue of metric and event names
// and their mapping to paper quantities.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotone; this is not
// enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 point-in-time value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (0 if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates durations: count, sum, min, max. It is a histogram
// reduced to the moments the harness actually reads; safe for concurrent
// use.
type Timer struct {
	mu       sync.Mutex
	count    int64
	sum      time.Duration
	min, max time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.sum += d
	t.mu.Unlock()
}

// TimerStats is a consistent copy of a Timer's accumulated moments.
type TimerStats struct {
	Count         int64
	Sum, Min, Max time.Duration
}

// Mean returns Sum/Count (0 when empty).
func (s TimerStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Stats returns a consistent snapshot of the timer.
func (t *Timer) Stats() TimerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimerStats{Count: t.count, Sum: t.sum, Min: t.min, Max: t.max}
}

// Registry is a namespace of metrics. Counter/Gauge/Timer get-or-create by
// name, so independent packages can share one registry without
// coordination. A name may only ever hold one metric kind; reusing it for
// another kind panics (it is a programming error, like a duplicate expvar).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the instrumented
// packages (rrset, core, server) and exposed by opimd's GET /metrics.
func Default() *Registry { return defaultRegistry }

// Labeled renders a metric name with Prometheus-style labels, e.g.
// Labeled("server_requests_total", "session", "alice") →
// `server_requests_total{session="alice"}`. The registry itself is
// label-unaware — each labeled name is an ordinary metric — so callers own
// the cardinality: only use values from a bounded, caller-controlled set
// (session ids, endpoint names), never request-derived free text.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: Labeled(%q) with odd key/value list", name))
	}
	out := name + "{"
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			out += ","
		}
		out += kv[i] + "=" + fmt.Sprintf("%q", kv[i+1])
	}
	return out + "}"
}

func (r *Registry) checkKind(name, kind string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: metric %q already registered as counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: metric %q already registered as gauge", name))
	}
	if _, ok := r.timers[name]; ok && kind != "timer" {
		panic(fmt.Sprintf("obs: metric %q already registered as timer", name))
	}
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer registered under name, creating it if absent.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "timer")
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Delete unregisters the metrics under names, whatever their kind, so they
// leave every later Snapshot. A holder of a deleted metric may keep
// updating it; the updates reach no registry. A later get-or-create under
// the same name starts a fresh metric.
func (r *Registry) Delete(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.counters, name)
		delete(r.gauges, name)
		delete(r.timers, name)
	}
}

// TimerValues is the JSON form of one timer in a registry Snapshot.
type TimerValues struct {
	Count       int64   `json:"count"`
	SumSeconds  float64 `json:"sum_seconds"`
	MinSeconds  float64 `json:"min_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// Snapshot is a consistent copy of every metric in a Registry — the body
// of opimd's GET /metrics in its JSON form.
type Snapshot struct {
	Counters map[string]int64       `json:"counters"`
	Gauges   map[string]float64     `json:"gauges"`
	Timers   map[string]TimerValues `json:"timers"`
}

// Snapshot copies out every metric value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]float64, len(gauges)),
		Timers:   make(map[string]TimerValues, len(timers)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, t := range timers {
		st := t.Stats()
		s.Timers[k] = TimerValues{
			Count:       st.Count,
			SumSeconds:  st.Sum.Seconds(),
			MinSeconds:  st.Min.Seconds(),
			MaxSeconds:  st.Max.Seconds(),
			MeanSeconds: st.Mean().Seconds(),
		}
	}
	return s
}

// WriteJSON writes the registry as one JSON object (map keys are emitted
// sorted by encoding/json, so output is deterministic for fixed values).
func (r *Registry) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.Snapshot())
}

// WriteText writes a flat "name value" line per metric, sorted by name —
// a minimal text exposition for eyeballs and shell pipelines. Timers
// expand to name_count / name_sum_seconds / name_min_seconds /
// name_max_seconds lines.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+4*len(s.Timers))
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %g", k, v))
	}
	for k, t := range s.Timers {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", k, t.Count),
			fmt.Sprintf("%s_sum_seconds %g", k, t.SumSeconds),
			fmt.Sprintf("%s_min_seconds %g", k, t.MinSeconds),
			fmt.Sprintf("%s_max_seconds %g", k, t.MaxSeconds),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
