package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"qoz/cluster"
)

// observed is one closed-loop phase against the servers together with what
// each server said about it: the difference of two /metrics scrapes and the
// CPU it used, per child.
type observed struct {
	ph    *phase
	delta map[*child]promDelta
	cpu   map[*child]float64
}

func (w *serveWorkload) children() []*child {
	out := append([]*child(nil), w.shards...)
	if w.gw != nil {
		out = append(out, w.gw)
	}
	return out
}

// snapshot scrapes every child's /metrics and reads its CPU time.
func (w *serveWorkload) snapshot() (map[*child]promSnapshot, map[*child]float64, error) {
	snaps, cpus := map[*child]promSnapshot{}, map[*child]float64{}
	for _, c := range w.children() {
		snap, err := scrape(c)
		if err != nil {
			return nil, nil, err
		}
		cpu, err := procCPU(c.pid())
		if err != nil {
			return nil, nil, err
		}
		snaps[c], cpus[c] = snap, cpu
	}
	return snaps, cpus, nil
}

func (w *serveWorkload) observe(dur time.Duration, clients int, target *child, sched [][]box, tr *tracer) (*observed, error) {
	snap0, cpu0, err := w.snapshot()
	if err != nil {
		return nil, err
	}
	ph, err := runClosed(w.cfg.ref, clients, dur, 1, w.pids(), w.opOn(target, sched, tr))
	if err != nil {
		return nil, err
	}
	if ph.failed > 0 {
		return nil, fmt.Errorf("%d requests failed: %w", ph.failed, ph.firstErr)
	}
	snap1, cpu1, err := w.snapshot()
	if err != nil {
		return nil, err
	}
	o := &observed{ph: ph, delta: map[*child]promDelta{}, cpu: map[*child]float64{}}
	for c := range snap0 {
		o.delta[c], o.cpu[c] = promDelta{snap0[c], snap1[c]}, cpu1[c]-cpu0[c]
	}
	return o, nil
}

// regionHandler returns the seconds and the count of successful region
// requests a process handled between the two scrapes.
func regionHandler(d promDelta) (seconds, count float64) {
	l := []string{`route="region"`, `status="200"`}
	return d.sum("qozd_request_duration_seconds_sum", l...), d.sum("qozd_request_duration_seconds_count", l...)
}

func meanMs(samples []sample) float64 {
	var t time.Duration
	for _, s := range samples {
		t += s.latency()
	}
	return float64(t) / 1e6 / float64(len(samples))
}

func p50Ms(samples []sample) float64 { return percentile(latenciesMs(samples), 0.5) }

// addGateway completes a one-shard set-up to two shards and a gateway, so
// the cluster layer can be measured on any workload's stores.
func (w *serveWorkload) addGateway() error {
	one := w.shards
	if err := w.startServers(1, false); err != nil {
		return err
	}
	w.shards = append(one, w.shards...)
	args := []string{"-gateway"}
	for _, s := range w.shards {
		args = append(args, "-shard", s.url)
	}
	gw, err := w.p.start("gateway", args...)
	w.gw = gw
	return err
}

// servedSweep is the served half of the layer sweep: it measures the qozd,
// cluster and obs layers from outside — client-side httptrace timings,
// /metrics deltas of the unmodified binaries, /proc CPU — and assembles the
// per-op time budget.
//
// front is the traced phase of the workload's own traffic (for the two
// in-process workloads: of a short serve_scan-style probe over stores of
// their fields). The cluster metrics come from front when it went through
// the gateway, and otherwise from a short probe of gateway_hot-style boxes
// through a gateway started for the purpose.
func (w *serveWorkload) servedSweep(front *observed, tr *tracer, probe time.Duration) (m, budget map[string]float64, err error) {
	m, budget = map[string]float64{}, map[string]float64{}
	gb := func(o *observed) float64 { return float64(o.ph.bytes()) / 1e9 }

	var ttfb, body []float64
	for c := range w.ttfb {
		ttfb, body = append(ttfb, w.ttfb[c]...), append(body, w.body[c]...)
	}
	if len(ttfb) == 0 {
		return nil, nil, fmt.Errorf("traced phase recorded no first-byte times")
	}
	m["qozd.ttfb_ms_p50"], m["qozd.body_ms_p50"] = median(ttfb), median(body)

	fd := front.delta[w.front]
	fSec, fN := regionHandler(fd)
	client, handler := meanMs(front.ph.samples), fSec/fN*1e3
	m["qozd.handler_ms_mean"] = handler
	m["qozd.client_gap_ms_mean"] = client - handler
	if all := fd.sum("qozd_flight_leads_total") + fd.sum("qozd_flight_coalesced_total"); all > 0 {
		m["qozd.flight_coalesced_ratio"] = fd.sum("qozd_flight_coalesced_total") / all
	}

	// Shard side of the same traffic: store stages against handler time.
	var sSec, sN, dec, fetch, shardCPU float64
	for _, s := range w.shards {
		d := front.delta[s]
		sec, n := regionHandler(d)
		sSec, sN = sSec+sec, sN+n
		dec += d.sum("qozd_store_stage_seconds_sum", `stage="decode"`)
		fetch += d.sum("qozd_store_stage_seconds_sum", `stage="fetch"`)
		m["qozd.rejected_total"] += d.sum("qozd_requests_rejected_total")
		shardCPU += front.cpu[s]
	}
	m["qozd.stage_decode_share"] = dec / sSec
	m["qozd.stage_fetch_share"] = fetch / sSec
	m["qozd.self_share"] = 1 - (dec+fetch)/sSec
	m["qozd.cpu_s_per_gb_shard"] = shardCPU / gb(front)

	// Hot probes straight at shard 0: gateway_hot-sized boxes for
	// shard_hot_ms_p50, and (for scan traffic) one scan-sized box repeated,
	// whose handler time is a shard's cost with every brick cached — an
	// independent reading of "self" to close the budget against.
	rng := rand.New(rand.NewSource(w.cfg.seed))
	hot := w.sched
	if !w.gateway {
		// A small cache holds only a couple of boxes: repeat two.
		two := hotBoxes(rng, 2, len(w.fields), fieldEdge, w.brick)
		hot = [][]box{two, two}
	}
	sh, err := w.observe(probe, 1, w.shards[0], hot, nil)
	if err != nil {
		return nil, nil, err
	}
	m["qozd.shard_hot_ms_p50"] = p50Ms(sh.ph.samples)

	budget["client_latency_ms"] = client
	budget["client_gap_ms"] = client - handler
	budget["handler_ms"] = handler
	if !w.gateway {
		one := [][]box{w.sched[0][:1], w.sched[0][:1]}
		self, err := w.observe(probe, 1, w.shards[0], one, nil)
		if err != nil {
			return nil, nil, err
		}
		selfSec, selfN := regionHandler(self.delta[w.shards[0]])
		budget["stage_fetch_ms"] = fetch / sN * 1e3
		budget["stage_decode_ms"] = dec / sN * 1e3
		budget["self_cached_ms"] = selfSec / selfN * 1e3
		budget["unexplained_ms"] = handler - budget["stage_fetch_ms"] - budget["stage_decode_ms"] - budget["self_cached_ms"]
	}

	// Cluster layer.
	gwObs := front
	if !w.gateway {
		if err := w.addGateway(); err != nil {
			return nil, nil, err
		}
		if gwObs, err = w.observe(probe, w.nClient, w.gw, hot, nil); err != nil {
			return nil, nil, err
		}
	}
	gd := gwObs.delta[w.gw]
	gSec, gN := regionHandler(gd)
	subSec, subN := gd.sum("qozd_gateway_shard_seconds_total"), gd.sum("qozd_gateway_shard_reads_total")
	m["cluster.subreads_per_request"] = gd.sum("qozd_gateway_subreads_total") / gN
	m["cluster.shard_time_share"] = subSec / gSec
	// Handler time not covered by one average sub-read: exact when a
	// request's sub-reads overlap fully, an under-estimate of gateway work
	// otherwise (waiting for the slowest sub-read lands here too).
	m["cluster.gateway_self_ms_mean"] = (gSec/gN - subSec/subN) * 1e3
	m["cluster.retries_total"] = gd.sum("qozd_gateway_retries_total")
	m["cluster.shard_errors_total"] = gd.sum("qozd_gateway_shard_errors_total")
	m["qozd.cpu_s_per_gb_gateway"] = gwObs.cpu[w.gw] / gb(gwObs)
	if w.gateway {
		budget["subread_ms"] = subSec / subN * 1e3
		budget["gateway_self_ms"] = m["cluster.gateway_self_ms_mean"]
		budget["shard_handler_ms"] = sSec / sN * 1e3
		budget["shard_hop_ms"] = budget["subread_ms"] - budget["shard_handler_ms"]
		budget["stage_fetch_ms"] = fetch / sN * 1e3
		budget["stage_decode_ms"] = dec / sN * 1e3
	}

	// The same fan-out from this process, without the gateway's HTTP hop.
	fan, err := w.clientFanout(hot[0], probe)
	if err != nil {
		return nil, nil, err
	}
	m["cluster.client_fanout_ms_p50"] = fan

	scrapes := make([]float64, 5)
	for i := range scrapes {
		t := time.Now()
		if _, err := scrape(w.shards[0]); err != nil {
			return nil, nil, err
		}
		scrapes[i] = float64(time.Since(t)) / 1e6
	}
	m["obs.metrics_scrape_ms"] = median(scrapes)
	return m, budget, nil
}

// clientFanout reads boxes through cluster.Client.ReadRegionRaw against the
// shards for dur and returns the median time per read, checking each answer
// against the reference image.
func (w *serveWorkload) clientFanout(boxes []box, dur time.Duration) (float64, error) {
	ctx := context.Background()
	cl := &cluster.Client{HTTP: w.http}
	var urls []string
	for _, s := range w.shards {
		urls = append(urls, s.url)
	}
	cat, err := cl.Catalog(ctx, urls)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i, start := 0, time.Now(); time.Since(start) < dur; i++ {
		b := boxes[i%len(boxes)]
		f := cat[storeNames[b.field]]
		if f == nil {
			return 0, fmt.Errorf("catalog lacks field %s", storeNames[b.field])
		}
		t := time.Now()
		got, _, err := cl.ReadRegionRaw(ctx, f, b.lo[:], b.hi[:])
		ms = append(ms, float64(time.Since(t))/1e6)
		if err != nil {
			return 0, err
		}
		if !matchesBox(got, w.refs[b.field], fieldEdge, b) {
			return 0, fmt.Errorf("%v: cluster.Client answer differs from the reference", b)
		}
	}
	return median(ms), nil
}

// budgetLines renders the per-op budget for the human-readable report. A
// remainder above 5 % of its total is flagged, never hidden.
func budgetLines(b map[string]float64) []string {
	line := func(format string, keys ...string) string {
		args := make([]any, len(keys))
		for i, k := range keys {
			args[i] = b[k]
		}
		return fmt.Sprintf(format, args...)
	}
	out := []string{line("budget (ms/op): client latency %.3f = client gap %.3f + handler %.3f",
		"client_latency_ms", "client_gap_ms", "handler_ms")}
	if _, gw := b["gateway_self_ms"]; gw {
		out = append(out,
			line("  gateway handler %.3f = one sub-read %.3f + gateway self %.3f (plan, stitch, write, and waiting for the slowest sub-read; it is the remainder, nothing outside the gateway measures it separately, so no unexplained part can be stated)",
				"handler_ms", "subread_ms", "gateway_self_ms"),
			line("  sub-read %.3f = shard handler %.3f + gateway-to-shard hop %.3f; shard handler holds fetch %.3f + decode %.3f",
				"subread_ms", "shard_handler_ms", "shard_hop_ms", "stage_fetch_ms", "stage_decode_ms"))
	} else {
		out = append(out, line("  handler %.3f = stage fetch %.3f + stage decode %.3f + self %.3f (a fully cached request's handler time: parse, ETag, flight, admission, copy, write) + unexplained %.3f",
			"handler_ms", "stage_fetch_ms", "stage_decode_ms", "self_cached_ms", "unexplained_ms"))
	}
	if share := b["unexplained_ms"] / b["handler_ms"]; share > 0.05 || share < -0.05 {
		out = append(out, fmt.Sprintf("  UNEXPLAINED REMAINDER is %.1f %% of handler time", share*100))
	}
	return out
}
