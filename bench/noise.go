package main

import (
	"errors"
	"fmt"
)

// runRepeat is the noise self-check: every workload n times, each run a
// process of its own with its own seed, then per workload × end-to-end
// metric the median, the quartiles, the quartile distance as a share of the
// median (what the benchmark contract calls the spread and holds to the
// bound) and (max − min) ÷ median, and beside them the spread the timed
// metrics would have had unscaled, and the machine index of the runs.
func runRepeat(cfg config, n int) error {
	if n < 2 {
		return errors.New("-repeat needs at least 2 runs")
	}
	names := workloadNames
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	values, asWas := map[string]map[string][]float64{}, map[string]map[string][]float64{}
	for _, w := range names {
		values[w], asWas[w] = map[string][]float64{}, map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for _, w := range names {
			rep, raw, err := runChild(cfg, w, cfg.seed+int64(i))
			if err != nil {
				return err
			}
			for name, m := range rep.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			for name, v := range raw {
				asWas[w][name] = append(asWas[w][name], v)
			}
		}
	}
	fmt.Printf("\nnoise over %d runs (seeds %d..%d), %g s timed phase\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Println("| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | within a third of bound | (q3-q1)/median as the machine was |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range names {
		for _, d := range endToEnd {
			v := values[w][d.name]
			q1, q3 := quartiles(v)
			med := median(v)
			iqr := (q3 - q1) / med
			verdict := "yes"
			switch {
			case iqr > d.bound:
				verdict = "NO: outside the bound"
			case iqr > d.bound/3:
				verdict = "no"
			}
			unscaled := ""
			if r := asWas[w][d.name]; len(r) == len(v) {
				r1, r3 := quartiles(r)
				unscaled = fmt.Sprintf("%.4f", (r3-r1)/median(r))
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %g | %s | %s |\n",
				w, d.name, med, q1, q3, iqr, spread(v), d.bound, verdict, unscaled)
		}
		if x := asWas[w]["machine_index"]; len(x) > 1 {
			q1, q3 := quartiles(x)
			fmt.Printf("| %s | machine index | %.6g | %.6g | %.6g | %.4f | %.4f | | | |\n", w, median(x), q1, q3, (q3-q1)/median(x), spread(x))
		}
	}
	return nil
}
