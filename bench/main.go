// Command qozbench is this repository's benchmark: one command that
// generates inputs from a seed, runs one named workload against the
// unmodified library and qozd binary, verifies every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run). BENCHMARK.json at the repository root names it;
// README.md in this directory is the manual.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 18
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median. One set-up is too noisy to hold to a bound (the first one in
	// a process also pays page faults and heap growth the others do not).
	setupReps = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	qozd     string
	work     string
	out      string
	ref      *reference // the machine probe (ref.go), set by run
}

// metric is one reported number; the JSON shape is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: one of "+fmt.Sprint(workloadNames)+", or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the inputs and the request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	flag.IntVar(&repeat, "repeat", 0, "run every workload N times (seeds seed..seed+N-1) and print the noise table")
	flag.StringVar(&cfg.qozd, "qozd", "", "path of the qozd binary under test (run.sh builds and passes it)")
	flag.StringVar(&cfg.work, "work", "", "work directory for stores, logs and children; removed on exit")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	refServer := flag.Bool("refserver", false, "internal: serve the relay kernel's fixed body (ref.go)")
	refUpstream := flag.String("refupstream", "", "internal: fetch that body from this URL instead")
	flag.Parse()
	if *refServer {
		fatal(refServerMain(*refUpstream))
	}
	cfg.trace = trace != 0
	if cfg.qozd == "" || cfg.work == "" {
		fatal(errors.New("need -qozd and -work; start the benchmark through bench/run.sh"))
	}

	// The benchmark process is itself the process under test of the two
	// in-process workloads: pin its scheduler and collector settings.
	runtime.GOMAXPROCS(benchMaxProcs)
	debug.SetGCPercent(benchGCPct)

	switch {
	case repeat > 0:
		fatal(runRepeat(cfg, repeat))
	case cfg.workload == "all":
		for _, name := range workloadNames {
			if _, _, err := runChild(cfg, name, cfg.seed); err != nil {
				fatal(err)
			}
		}
	default:
		rep, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qozbench:", err)
		os.Exit(2)
	}
}

// run executes one workload once and returns its report. Everything it
// starts or creates is gone when it returns, also on error and on SIGINT.
func run(cfg config) (*report, error) {
	p, err := newProcs(cfg.qozd, cfg.work)
	if err != nil {
		return nil, err
	}
	defer p.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		p.close()
		os.Exit(130)
	}()

	if cfg.ref, err = newReference(served(cfg.workload)); err != nil {
		return nil, err
	}
	defer cfg.ref.close()
	w, err := newWorkload(cfg, p)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	setups := make([]float64, reps)
	for i := range setups {
		if i > 0 {
			w.tearDown()
		}
		t := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t).Seconds()
	}
	if err := w.prepare(); err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(cfg, p, w, dur)
	}

	resetPeakRSS()
	ph, err := runClosed(cfg.ref, w.clients(), dur, w.opCycle(), w.pids(), w.op(nil))
	if err != nil {
		return nil, err
	}
	ratio, psnr, verr := w.verify()

	rep := &report{Attempted: len(ph.samples) + ph.failed, Failed: ph.failed, Metrics: map[string]metric{}}
	if verr != nil {
		// A wrong reconstruction taints every op that produced or served it.
		fmt.Println("VERIFICATION FAILED:", verr)
		rep.Failed = rep.Attempted
	}
	if ph.firstErr != nil {
		fmt.Println("FAILED OP:", ph.firstErr)
	}
	rep.Correct = rep.Failed == 0

	// Timed metrics are reported at machine index 1 (ref.go): times divided
	// by the run's index, rates multiplied by it. No probe runs during the
	// set-ups, but the machine drifts over minutes, not seconds, so the
	// index of the phase that follows them serves them too.
	index := machineIndex(ph.probes)
	lat := latenciesMs(ph.samples)
	raw := map[string]float64{
		"throughput_mbps": ph.mbps(),
		"latency_p50_ms":  percentile(lat, 0.5),
		"latency_p90_ms":  percentile(lat, 0.9),
		"cpu_s_per_gb":    ph.cpu / (float64(ph.bytes()) / 1e9),
		"setup_s":         median(setups),
	}
	e2e := map[string]float64{
		"throughput_mbps":           raw["throughput_mbps"] * index,
		"latency_p50_ms":            raw["latency_p50_ms"] / index,
		"latency_p90_ms":            raw["latency_p90_ms"] / index,
		"cpu_s_per_gb":              raw["cpu_s_per_gb"] / index,
		"peak_rss_mb":               float64(ph.peakRSS) / 1e6,
		"stored_bytes_per_raw_byte": ratio,
		"psnr_db":                   psnr,
		"setup_s":                   raw["setup_s"] / index,
	}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
	}

	fmt.Printf("workload %s  seed %d  timed phase %.2f s (ops %.2f s, %d probes of the machine the rest)  %d ops (%d beyond p90)  %d failed\n",
		cfg.workload, cfg.seed, dur.Seconds(), ph.wall.Seconds(), len(ph.probes), len(ph.samples), samplesBeyond(len(lat), 0.9), rep.Failed)
	if samplesBeyond(len(lat), 0.9) < minBeyond {
		fmt.Printf("note: fewer than %d samples lie beyond p90\n", minBeyond)
	}
	printMetrics(endToEnd, e2e)
	epochs := ph.epochMBps()
	raw["machine_index"] = index
	for i, k := range cfg.ref.kernels {
		raw["index_"+kernelNames[k]] = kernelIndex(ph.probes, i)
	}
	asWas, _ := json.Marshal(raw)
	fmt.Printf("machine index %.4f  epoch_spread %.3f\n%s%s\n", index, spread(epochs), asWasPrefix, asWas)
	fmt.Printf("set-ups as the machine gave them: %.3f s\n", setups)
	if index < 0.8 || index > 1.25 || spread(epochs) > 0.15 {
		warnNoisy()
	}
	return rep, nil
}

// asWasPrefix starts the line that gives the timed metrics unscaled, as
// JSON; the noise self-check reads it back.
const asWasPrefix = "as the machine was: "

func warnNoisy() {
	fmt.Println("WARNING noisy_machine: the machine is a quarter off its nominal speed, its calibration drifted by more than 5 %, or epochs of equal work differ by more than 15 %; the index corrects for most of it, but read this run with care")
}

func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-40s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// runTraced is the -trace 1 run: the workload again, a fifth of the time
// untraced and three tenths traced, then the layer sweep. It reports every
// per-layer metric and writes the spans.
func runTraced(cfg config, p *procs, w workload, dur time.Duration) (*report, error) {
	before := calibrate()
	plain, err := runClosed(cfg.ref, w.clients(), dur/5, w.opCycle(), w.pids(), w.op(nil))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, front, err := tracedPhase(cfg.ref, w, tr, dur*3/10)
	if err != nil {
		return nil, err
	}
	after := calibrate()
	attempted := len(plain.samples) + plain.failed + len(traced.samples) + traced.failed
	failed := plain.failed + traced.failed
	if _, _, err := w.verify(); err != nil {
		fmt.Println("VERIFICATION FAILED:", err)
		failed = attempted
	}

	in := w.sweepInputs()
	layers, err := runSweep(tr, in, cfg.work)
	if err != nil {
		return nil, err
	}

	// Served layers: on the workload's own servers, or for the in-process
	// workloads on a serve_scan-style probe over stores of their fields.
	sw, ok := w.(*serveWorkload)
	probe := dur / 10
	if !ok {
		w.tearDown() // the probe generates the same fields again from the seed
		sw = &serveWorkload{cfg: cfg, p: p, brick: 32, cache: 2 << 20, nClient: 2}
		if err := sw.setUp(); err != nil {
			return nil, fmt.Errorf("served probe: %w", err)
		}
		if err := sw.prepare(); err != nil {
			return nil, err
		}
		if front, err = sw.observe(probe, sw.nClient, sw.front, sw.sched, tr); err != nil {
			return nil, err
		}
	}
	served, budget, err := sw.servedSweep(front, tr, probe)
	if err != nil {
		return nil, err
	}
	for k, v := range served {
		layers[k] = v
	}

	lat := latenciesMs(traced.samples)
	epochs := traced.epochMBps()
	layers["loadgen.ops_per_s"] = float64(len(traced.samples)) / traced.wall.Seconds()
	layers["loadgen.latency_p99_ms"] = percentile(lat, 0.99)
	layers["loadgen.latency_max_ms"] = lat[len(lat)-1]
	layers["loadgen.epoch_spread"] = spread(epochs)
	// Each phase at its own machine index, so that a machine that changed
	// between the two phases does not read as tracing overhead.
	layers["loadgen.trace_overhead_ratio"] = traced.mbps() * machineIndex(traced.probes) / (plain.mbps() * machineIndex(plain.probes))
	layers["machine.calib_int_mops"] = before.intMops
	layers["machine.calib_mem_mbps"] = before.memMBps
	layers["machine.calib_drift"] = after.intMops / before.intMops
	layers["machine.index"] = machineIndex(append(plain.probes, traced.probes...))

	rep := &report{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	path, err := tr.write(cfg.out, traceFile{Workload: cfg.workload, Seed: cfg.seed, Budget: budget, Metrics: layers})
	if err != nil {
		return nil, err
	}

	fmt.Printf("workload %s  seed %d  traced phase %.2f s  %d ops  %d failed  spans in %s\n",
		cfg.workload, cfg.seed, traced.wall.Seconds(), len(traced.samples), failed, path)
	printMetrics(perLayer, layers)
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time (ms, summed):")
	for _, n := range names {
		fmt.Printf("  %-40s %12.3f\n", n, float64(self[n])/1e6)
	}
	if !ok {
		fmt.Println("served layers measured on a serve_scan-style probe over stores of this workload's fields")
	}
	for _, l := range budgetLines(budget) {
		fmt.Println(l)
	}
	if drift := after.intMops / before.intMops; drift < 0.95 || drift > 1.05 || spread(epochs) > 0.15 {
		warnNoisy()
	}
	return rep, nil
}

// tracedPhase runs the workload's ops with spans; for a served workload it
// also takes the servers' /metrics and CPU around the phase.
func tracedPhase(ref *reference, w workload, tr *tracer, dur time.Duration) (*phase, *observed, error) {
	if sw, ok := w.(*serveWorkload); ok {
		o, err := sw.observe(dur, sw.nClient, sw.front, sw.sched, tr)
		if err != nil {
			return nil, nil, err
		}
		return o.ph, o, nil
	}
	ph, err := runClosed(ref, w.clients(), dur, w.opCycle(), w.pids(), w.op(tr))
	return ph, nil, err
}

// runChild runs one workload in a process of its own — peak RSS is a
// per-process reading, so workloads must not share one — passing its output
// through and returning the report from its last line.
func runChild(cfg config, workload string, seed int64) (*report, map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-qozd", cfg.qozd, "-work", cfg.work, "-out", cfg.out)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: last line is not a report: %w", workload, err)
	}
	asWas := map[string]float64{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, asWasPrefix); ok {
			json.Unmarshal([]byte(rest), &asWas)
		}
	}
	return &rep, asWas, nil
}
