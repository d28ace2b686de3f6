package main

import (
	"fmt"
	"sort"
	"time"
)

// repeatRuns runs every selected workload cfg.repeat times, each run in a
// fresh process with seed cfg.seed+i, alternating the workload order from
// one repetition to the next, and prints for every metric its median,
// quartiles and spread (interquartile range over median) — the quantities
// the regression bounds in BENCHMARK.json are judged by.
func repeatRuns(cfg config) error {
	sel := workloads
	if cfg.workload != "" {
		w, ok := findWorkload(cfg.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		sel = []workload{w}
	}
	values := map[string]map[string][]float64{} // workload → metric → values
	units := map[string]string{}
	for i := 0; i < cfg.repeat; i++ {
		order := append([]workload(nil), sel...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			c := cfg
			c.workload, c.seed = w.name, cfg.seed+uint64(i)
			t0 := time.Now()
			res, err := child(c)
			if err != nil {
				return err
			}
			elapsed := time.Since(t0).Seconds()
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Printf("run %d %s seed %d: attempted=%d failed=%d correct=%v in %.1fs\n", i+1, w.name, c.seed, res.Attempted, res.Failed, res.Correct, elapsed)
		}
	}
	fmt.Printf("\n%-14s %-32s %-8s %14s %14s %14s %8s %s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "runs")
	for _, w := range sel {
		ms := values[w.name]
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := ms[name]
			if len(vs) < 2 {
				fmt.Printf("%-14s %-32s %-8s %14s %14.6g %14s %8s %d\n", w.name, name, units[name], "", vs[0], "", "", len(vs))
				continue
			}
			q1, med, q3 := quartiles(vs)
			fmt.Printf("%-14s %-32s %-8s %14.6g %14.6g %14.6g %7.2f%% %d\n", w.name, name, units[name], q1, med, q3, 100*ratio(q3-q1, med), len(vs))
		}
	}
	return nil
}
