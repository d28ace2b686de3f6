// Command bench is the repository's end-to-end benchmark: it drives the
// library (core.Maximize) and an in-process opimd (server.New behind
// httptest, driven through server.Client) with four workloads and reports
// end-to-end and per-layer metrics. See bench/README.md.
//
//	bash bench/run.sh --workload opimc --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run is the traced pass and the
// metrics are the per-layer ones (it also writes spans and a ledger to
// -trace-dir). -repeat N runs every workload N times in fresh processes
// and prints each metric's median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

var workloads = []workload{opimcWorkload, pollWorkload, mutateWorkload, learnWorkload}

func main() { os.Exit(realMain(os.Args[1:])) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	repeat   int
	smoke    bool
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: opimc, serve-poll, serve-mutate or serve-learn (-repeat: default all)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input of the workload is derived from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured duration of one run")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass: per-layer metrics, spans and ledger")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join("bench", "trace"), "where the traced pass writes <workload>.spans.jsonl and <workload>.ledger.json")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run each workload this many times in fresh processes (seeds seed, seed+1, …) and print medians and quartiles")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs, for checking the harness itself")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.repeat > 0 {
		if err := repeatRuns(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	o, err := runOne(cfg, w, untracedChild(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(os.Stderr, w.name, o)
	line, err := json.Marshal(o.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !o.res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne measures one workload. A traced run first obtains the untraced
// op_ms.p50 from untraced — another process, so the two passes never share
// one — to report bench.trace_overhead, then writes its spans and ledger.
func runOne(cfg config, w workload, untraced func() (float64, error)) (*outcome, error) {
	tmp, err := os.MkdirTemp("", "opimbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	p := params{seed: cfg.seed, smoke: cfg.smoke, nproc: runtime.NumCPU(), tmp: tmp}
	var base float64
	if cfg.trace {
		if base, err = untraced(); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		p.tr = newTracer()
	}
	o, err := measure(w, p, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return o, nil
	}
	l := o.ledger
	l.Metrics["bench.trace_overhead"] = metric{ratio(o.res.Metrics["op_ms.p50"].Value, base), "ratio"}
	o.res.Metrics, o.samples = l.Metrics, l.samples
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := p.tr.writeJSONL(filepath.Join(cfg.traceDir, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return o, os.WriteFile(filepath.Join(cfg.traceDir, w.name+".ledger.json"), append(b, '\n'), 0o644)
}

// untracedChild returns a function running cfg's workload untraced in a
// child process and returning its op_ms.p50.
func untracedChild(cfg config) func() (float64, error) {
	return func() (float64, error) {
		c := cfg
		c.trace = false
		res, err := child(c)
		if err != nil {
			return 0, err
		}
		return res.Metrics["op_ms.p50"].Value, nil
	}
}

// child runs this binary on one workload in a fresh process (so set-up
// time, peak RSS and the metrics registry are its own) and parses the
// result line.
func child(cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0",
	}
	if cfg.trace {
		args[len(args)-1] = "1"
		args = append(args, "-trace-dir", cfg.traceDir)
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, errors.Join(fmt.Errorf("%s seed %d: no result line", cfg.workload, cfg.seed), runErr)
	}
	return &res, runErr
}
