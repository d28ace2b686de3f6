package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/reprolab/opim/internal/obs"
)

// countedOps is how many operations of the script the core.* counts
// average over: the first solves (opimc) or sessions (serve-poll). A fixed
// prefix makes the counts depend on the seed alone, not on how far a run
// got, so they repeat exactly.
const countedOps = 16

// setupReps is how many times a run builds its workload's inputs and
// system under test before the measured window, and again after it (a
// smoke run builds twice). setup_s reports the median of all of them; only
// the last instance before the window is measured.
func setupReps(smoke bool) int {
	if smoke {
		return 2
	}
	return 16
}

// params is what a workload's set-up receives.
type params struct {
	seed  uint64
	smoke bool   // tiny inputs for the smoke test
	nproc int    // CPUs available; RR sampling parallelism
	tmp   string // directory for checkpoint directories
	tr    *tracer
}

// workload is one traffic mix (BENCHMARK.json says why each exists).
// setup derives every input from p.seed.
type workload struct {
	name  string
	setup func(p params) (instance, error)
}

// instance is one set-up workload: inputs generated, system started.
type instance interface {
	// run drives the workload's script until deadline; requests in flight
	// at the deadline complete.
	run(r *runner, deadline time.Time)
	// check verifies the program's outputs, reporting through r.fail.
	check(r *runner)
	// probe re-runs single layers on the inputs the run produced and
	// records their costs and counts in l (traced pass only).
	probe(r *runner, l *ledger)
	close()
}

// reqStats accumulates the client-side latencies of one request kind.
type reqStats struct {
	n    int
	sumS float64
}

// runner collects one measured run's observations from every client
// goroutine of a workload.
type runner struct {
	tr *tracer

	mu        sync.Mutex
	ops       []float64 // latency of each completed operation, ms
	reqs      map[string]*reqStats
	attempted int64
	failed    int64
	lags      []float64 // open-loop send lag behind schedule, ms
	period    float64   // open-loop writer period, ms (0 for closed loops)
	problems  []string  // failed output checks
}

func newRunner(tr *tracer) *runner {
	return &runner{tr: tr, reqs: make(map[string]*reqStats)}
}

// errRefused wraps the error of a request the server answered with 409
// because it arrived while a mutation batch was being applied. Only the
// serve-mutate reader expects such answers; they are counted there and not
// as failed calls (see mutate.go).
var errRefused = errors.New("refused while a mutation batch was applied")

// call times one call into the program under name ("http.<endpoint>" or a
// library function) from the caller's side. When tracing, the call runs
// inside a root span whose id travels with the context. An error counts
// as a failed call unless it wraps errRefused.
func (r *runner) call(name string, f func(ctx context.Context) error) (time.Duration, error) {
	id := r.tr.begin(name, 0)
	ctx := withSpan(context.Background(), id)
	t0 := time.Now()
	err := f(ctx)
	d := time.Since(t0)
	r.tr.end(id)
	r.mu.Lock()
	st := r.reqs[name]
	if st == nil {
		st = &reqStats{}
		r.reqs[name] = st
	}
	st.n++
	st.sumS += d.Seconds()
	r.attempted++
	if err != nil && !errors.Is(err, errRefused) {
		r.failed++
	}
	r.mu.Unlock()
	return d, err
}

// op records one completed operation of the workload (the unit op_ms
// reports).
func (r *runner) op(d time.Duration) {
	r.mu.Lock()
	r.ops = append(r.ops, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

func (r *runner) lag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// fail records a failed output check.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run: the printed result plus the sample count of
// each metric and, for a traced run, its ledger.
type outcome struct {
	res      result
	samples  map[string]int
	problems []string
	ledger   *ledger
}

// measure sets the workload up setupReps times, runs the last instance for
// the given duration, and checks its outputs. With p.tr set it also probes
// the layers and builds the ledger. Afterwards it times setupReps more
// set-ups: the machine's noise comes in bursts of seconds, which would
// otherwise move every set-up sample of a run at once.
func measure(w workload, p params, dur time.Duration) (*outcome, error) {
	inst, setups, err := setUp(w, p, nil)
	if err != nil {
		return nil, err
	}
	// Garbage from the discarded set-ups must not be collected on the
	// measured clock.
	runtime.GC()

	r := newRunner(p.tr)
	before := obs.Default().Snapshot()
	cpu0, _ := rusage()
	start := time.Now()
	inst.run(r, start.Add(dur))
	wall := time.Since(start).Seconds()
	cpu1, peak := rusage()
	delta := regDelta{before, obs.Default().Snapshot()}

	inst.check(r)
	if len(r.ops) == 0 {
		r.fail("no operation completed in %v", dur)
	}
	if lag := quantile(r.lags, 0.9); r.period > 0 && lag > r.period/10 {
		fmt.Fprintf(os.Stderr, "bench: %s: generator lag p90 %.1f ms exceeds a tenth of its %.0f ms period; this run's latencies are not valid\n", w.name, lag, r.period)
	}
	o := &outcome{
		res: result{
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics: map[string]metric{
				"op_ms.p50":   {quantile(r.ops, 0.5), "ms"},
				"op_ms.p90":   {quantile(r.ops, 0.9), "ms"},
				"peak_rss_mb": {peak, "MiB"},
			},
		},
		samples: map[string]int{
			"op_ms.p50": len(r.ops), "op_ms.p90": len(r.ops), "peak_rss_mb": 1,
		},
	}
	if p.tr != nil {
		l := newLedger(w.name, p.seed, wall, cpu1-cpu0, p.nproc, r, delta, p.tr)
		inst.probe(r, l)
		l.finish(r)
		o.ledger = l
	}
	// Probes replay the run's outputs, so their failures count too.
	o.res.Correct = len(r.problems) == 0
	o.problems = r.problems
	inst.close()
	runtime.GC()
	if inst, setups, err = setUp(w, p, setups); err != nil {
		return nil, err
	}
	inst.close()
	o.res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	o.samples["setup_s"] = len(setups)
	return o, nil
}

// setUp builds the workload setupReps times, appending each set-up's
// duration to times, and returns the last instance; it closes the others.
func setUp(w workload, p params, times []float64) (instance, []float64, error) {
	var inst instance
	for i := 0; i < setupReps(p.smoke); i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		t0 := time.Now()
		in, err := w.setup(p)
		if err != nil {
			return nil, times, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = in
	}
	return inst, times, nil
}

// printTable writes every metric with its unit and sample count.
func printTable(f *os.File, name string, o *outcome) {
	names := make([]string, 0, len(o.res.Metrics))
	for k := range o.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s: attempted=%d failed=%d correct=%v\n", name, o.res.Attempted, o.res.Failed, o.res.Correct)
	for _, k := range names {
		m := o.res.Metrics[k]
		fmt.Fprintf(f, "  %-34s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, o.samples[k])
	}
	for _, p := range o.problems {
		fmt.Fprintf(f, "  CHECK FAILED: %s\n", p)
	}
}

// regDelta is the change of the obs.Default() registry over a run.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) count(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d regDelta) seconds(name string) float64 {
	return d.after.Timers[name].SumSeconds - d.before.Timers[name].SumSeconds
}

func (d regDelta) observations(name string) float64 {
	return float64(d.after.Timers[name].Count - d.before.Timers[name].Count)
}
