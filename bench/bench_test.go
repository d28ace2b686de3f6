package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedUnit             `json:"end_to_end"`
	PerLayer  []namedUnit             `json:"per_layer"`
}

type namedUnit struct{ Name, Unit string }

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameMetrics fails unless got reports exactly the metrics of want, with
// their units, and every value is a finite number.
func sameMetrics(t *testing.T, label string, got map[string]metric, want []namedUnit) {
	t.Helper()
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: reports %d metrics %v, BENCHMARK.json lists %d", label, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", label, m.Name, g.Value)
		}
	}
}

// TestSmoke runs every workload at the smoke scale, untraced and traced,
// through its output checks, and holds the harness to BENCHMARK.json: the
// same workloads, and exactly its metrics with its units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		cfg := config{workload: w.name, seed: 7, seconds: 0.2, smoke: true, traceDir: t.TempDir()}
		o, err := runOne(cfg, w, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, o.res.Correct, o.res.Attempted, o.res.Failed, o.problems)
		}
		sameMetrics(t, w.name, o.res.Metrics, spec.EndToEnd)

		cfg.trace = true
		o, err = runOne(cfg, w, func() (float64, error) { return 1, nil })
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !o.res.Correct {
			t.Errorf("%s traced: problems=%v", w.name, o.problems)
		}
		sameMetrics(t, w.name+" traced", o.res.Metrics, spec.PerLayer)
		l := o.ledger
		var attributed float64
		for _, v := range l.AttributedS {
			attributed += v
		}
		if d := attributed + l.UnattributedS - l.ClientS; math.Abs(d) > 1e-9 {
			t.Errorf("%s: ledger does not reconcile: attributed %v + unattributed %v != client time %v", w.name, attributed, l.UnattributedS, l.ClientS)
		}
		for _, f := range []string{w.name + ".spans.jsonl", w.name + ".ledger.json"} {
			if st, err := os.Stat(filepath.Join(cfg.traceDir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: trace output %s missing or empty (%v)", w.name, f, err)
			}
		}
	}
}

// wrongApplied is serve-learn with the first round's recorded realization
// size off by one before the traced pass replays the campaigns.
type wrongApplied struct{ *learnRun }

func (w wrongApplied) probe(r *runner, l *ledger) {
	if len(w.campaigns[0]) > 0 && len(w.campaigns[0][0].rounds) > 0 {
		w.campaigns[0][0].rounds[0].applied++
	}
	w.learnRun.probe(r, l)
}

// TestLearnReplayCatchesWrongApplied holds the traced pass's learning
// replay to its word: a realization size that differs from what the daemon
// applied must fail the run.
func TestLearnReplayCatchesWrongApplied(t *testing.T) {
	w := workload{name: learnWorkload.name, setup: func(p params) (instance, error) {
		in, err := setupLearn(p)
		if err != nil {
			return nil, err
		}
		return wrongApplied{in.(*learnRun)}, nil
	}}
	cfg := config{workload: w.name, seed: 7, seconds: 0.2, smoke: true, trace: true, traceDir: t.TempDir()}
	o, err := runOne(cfg, w, func() (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if o.res.Correct || len(o.problems) == 0 || !strings.Contains(o.problems[0], "learning replay") {
		t.Fatalf("correct=%v problems=%v, want a learning replay failure", o.res.Correct, o.problems)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
