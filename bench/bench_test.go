package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qoz/internal/container"
	"qoz/store"
)

// These tests cover the harness's own arithmetic and generators. They start
// no child process and assert no timing.

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	// p90 is supported by ten samples beyond it from 100 samples on.
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {60, 6}, {1000, 100}} {
		if got := samplesBeyond(c.n, 0.9); got != c.want {
			t.Errorf("samplesBeyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
	if samplesBeyond(99, 0.9) >= minBeyond || samplesBeyond(100, 0.9) < minBeyond {
		t.Error("the ten-samples rule should flip between 99 and 100 samples")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles = %g, %g; want 2.5, 5.5", q1, q3)
	}
}

func TestEpochs(t *testing.T) {
	// Ops of 1 s and 10 MB back to back; boundaries after 2, 4 and 7 s.
	p := &phase{marks: []time.Duration{0, 2 * time.Second, 4 * time.Second, 7 * time.Second}}
	for i := 0; i < 8; i++ {
		p.samples = append(p.samples, sample{start: time.Duration(i) * time.Second, end: time.Duration(i+1) * time.Second, bytes: 10e6})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(p.samples), func(i, j int) { p.samples[i], p.samples[j] = p.samples[j], p.samples[i] })
	got := p.epochMBps() // the op ending at 8 s lies past the last boundary
	if want := []float64{10, 10, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("epoch MB/s = %v, want %v", got, want)
	}
	if spread(got) != 0 {
		t.Errorf("spread of equal epochs = %g", spread(got))
	}
	// Half the epochs twice as slow: (max − min) ÷ median.
	if got := spread([]float64{20, 20, 10, 10}); math.Abs(got-10.0/15) > 1e-9 {
		t.Errorf("spread = %g", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "http.roundtrip", StartNs: 10, EndNs: 90},
		{ID: 3, Parent: 2, Name: "http.ttfb", StartNs: 10, EndNs: 60},
		{ID: 4, Parent: 2, Name: "http.body", StartNs: 50, EndNs: 90}, // overlaps ttfb by 10
		{ID: 5, Name: "op", StartNs: 200, EndNs: 230},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 20 + 30, "http.roundtrip": 0, "http.ttfb": 50, "http.body": 40}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var nilTracer *tracer
	if id := nilTracer.start("x", 0, 0); id != 0 {
		t.Error("nil tracer must record nothing")
	}
	nilTracer.end(0)
}

const cannedBefore = `# HELP qozd_requests_total HTTP requests received
# TYPE qozd_requests_total counter
qozd_requests_total 10
# HELP qozd_flight_coalesced_total region requests served by another request's decode
# TYPE qozd_flight_coalesced_total counter
qozd_flight_coalesced_total 0
qozd_rate_limited_total{tenant="team a"} 2
qozd_store_bricks_decoded_total{field="rough"} 40
qozd_store_bricks_decoded_total{field="smooth"} 24
# HELP qozd_request_duration_seconds request latency
# TYPE qozd_request_duration_seconds histogram
qozd_request_duration_seconds_bucket{route="region",status="200",le="0.005"} 3
qozd_request_duration_seconds_bucket{route="region",status="200",le="+Inf"} 8
qozd_request_duration_seconds_sum{route="region",status="200"} 0.04
qozd_request_duration_seconds_count{route="region",status="200"} 8
qozd_request_duration_seconds_sum{route="region",status="404"} 0.001
qozd_request_duration_seconds_count{route="region",status="404"} 1
qozd_request_duration_seconds_sum{route="metrics",status="200"} 0.0002
qozd_request_duration_seconds_count{route="metrics",status="200"} 1
qozd_store_stage_seconds_sum{stage="decode"} 0.03
qozd_store_stage_seconds_sum{stage="fetch"} 0.001
qozd_gateway_shard_seconds_total{shard="http://127.0.0.1:47610"} 1.5e-05
`

const cannedAfter = `qozd_requests_total 111
qozd_flight_coalesced_total 1
qozd_rate_limited_total{tenant="team a"} 2
qozd_store_bricks_decoded_total{field="rough"} 440
qozd_store_bricks_decoded_total{field="smooth"} 424
qozd_request_duration_seconds_sum{route="region",status="200"} 0.54
qozd_request_duration_seconds_count{route="region",status="200"} 108
qozd_request_duration_seconds_sum{route="region",status="404"} 0.001
qozd_request_duration_seconds_count{route="region",status="404"} 1
qozd_request_duration_seconds_sum{route="metrics",status="200"} 0.0004
qozd_request_duration_seconds_count{route="metrics",status="200"} 2
qozd_store_stage_seconds_sum{stage="decode"} 0.43
qozd_store_stage_seconds_sum{stage="fetch"} 0.011
qozd_gateway_shard_seconds_total{shard="http://127.0.0.1:47610"} 0.25
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(cannedBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(cannedAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`qozd_rate_limited_total{tenant="team a"}`]; got != 2 {
		t.Errorf("label value with a space: got %v", got)
	}
	d := promDelta{before, after}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("requests", d.sum("qozd_requests_total"), 101)
	near("decoded over fields", d.sum("qozd_store_bricks_decoded_total"), 800)
	near("decoded rough", d.sum("qozd_store_bricks_decoded_total", `field="rough"`), 400)
	sec, n := regionHandler(d)
	near("region seconds", sec, 0.5)
	near("region count", n, 100) // the 404 and the /metrics scrapes are not counted
	near("decode seconds", d.sum("qozd_store_stage_seconds_sum", `stage="decode"`), 0.4)
	near("shard seconds", d.sum("qozd_gateway_shard_seconds_total"), 0.25-1.5e-05)
	near("absent family", d.sum("qozd_nonexistent_total"), 0)
	// A family name that is a prefix of another must not match it.
	near("prefix", d.sum("qozd_request_duration_seconds"), 0)

	if _, err := parseProm("qozd_requests_total ten\n"); err == nil {
		t.Error("a malformed value must be an error")
	}
}

func TestBoxesTouchExactlyEightBricks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, brick := range []int{32, 64} {
		for _, gen := range []struct {
			name string
			fn   func(*rand.Rand, int, int, int, int) []box
			edge int
		}{{"scan", scanBoxes, brick + brick/2}, {"hot", hotBoxes, brick}} {
			distinct := map[box]bool{}
			for _, b := range gen.fn(rng, 5000, 2, fieldEdge, brick) {
				if got := b.bricksTouched(brick); got != 8 {
					t.Fatalf("%s box %v touches %d bricks of edge %d, want 8", gen.name, b, got, brick)
				}
				for a := 0; a < 3; a++ {
					if b.lo[a] < 0 || b.hi[a] > fieldEdge || b.hi[a]-b.lo[a] != gen.edge {
						t.Fatalf("%s box %v leaves the field or has the wrong edge", gen.name, b)
					}
				}
				if b.field < 0 || b.field > 1 {
					t.Fatalf("box %v names field %d", b, b.field)
				}
				distinct[b] = true
			}
			per := fieldEdge/brick - 1
			if gen.name == "hot" && len(distinct) > 2*per*per*per {
				t.Errorf("hot boxes: %d distinct, at most %d can exist", len(distinct), 2*per*per*per)
			}
			if gen.name == "scan" && brick == 32 && len(distinct) < 4000 {
				t.Errorf("scan boxes should almost never repeat: %d distinct of 5000", len(distinct))
			}
		}
	}
}

func TestScheduleAndFieldsComeFromTheSeed(t *testing.T) {
	boxes := func(seed int64) []box { return scanBoxes(rand.New(rand.NewSource(seed)), 500, 2, fieldEdge, 32) }
	if !reflect.DeepEqual(boxes(7), boxes(7)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(boxes(7), boxes(8)) {
		t.Error("different seeds, same schedule")
	}
	dims := []int{32, 32, 32}
	a, err := makeFields([]string{"miranda", "nyx"}, dims, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeFields([]string{"miranda", "nyx"}, dims, 7)
	c, _ := makeFields([]string{"miranda", "nyx"}, dims, 8)
	for i := range a {
		if !reflect.DeepEqual(a[i].data, b[i].data) || a[i].abs != b[i].abs {
			t.Errorf("field %d: same seed, different data", i)
		}
		if reflect.DeepEqual(a[i].data, c[i].data) {
			t.Errorf("field %d: different seeds, same data", i)
		}
		// The perturbation stays far inside the error bound.
		var worst float64
		for j := range a[i].data {
			worst = math.Max(worst, math.Abs(float64(a[i].data[j]-c[i].data[j])))
		}
		if worst > a[i].abs/10 {
			t.Errorf("field %d: seeds differ by %g, bound is %g", i, worst, a[i].abs)
		}
	}
	if _, err := makeField("nosuch", dims, 1); err == nil {
		t.Error("unknown generator must be an error")
	}
}

func TestCheckRecon(t *testing.T) {
	orig := []float32{0, 1, 2, 3}
	if _, err := checkRecon(orig, []float32{0.1, 1, 2, 3}, 0.05); err == nil {
		t.Error("a point outside the bound must fail")
	}
	if _, err := checkRecon(orig, []float32{0, 1, 2, float32(math.NaN())}, 0.05); err == nil {
		t.Error("a NaN reconstruction must fail")
	}
	if _, err := checkRecon(orig, orig[:3], 0.05); err == nil {
		t.Error("a short reconstruction must fail")
	}
	p, err := checkRecon(orig, []float32{0.03, 1, 2, 3}, 0.05)
	want := 20*math.Log10(3) - 10*math.Log10(0.03*0.03/4)
	if err != nil || math.Abs(p-want) > 1e-4 {
		t.Errorf("psnr = %g, %v; want %g", p, err, want)
	}
}

// TestReplayRepeats writes two small stores and replays a seeded schedule
// through one shared cache twice: served bytes must match the full decode
// box for box, and the cache counters behind store.cache_hit_ratio and
// store.decode_amplification must repeat exactly.
func TestReplayRepeats(t *testing.T) {
	const edge, brick = 64, 16
	ctx := context.Background()
	dir := t.TempDir()
	fields, err := makeFields([]string{"miranda", "nyx"}, []int{edge, edge, edge}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	var refs [][]byte
	for i, f := range fields {
		path := filepath.Join(dir, f.name+".qozb")
		if err := writeStoreFile(ctx, path, f.data, f.dims, f.opts(), brick); err != nil {
			t.Fatal(err)
		}
		if _, err := verifyStore(ctx, path, f.data, f.abs); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		s, err := store.OpenFile(path, store.Options{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.ReadField(ctx)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		paths, refs = append(paths, path), append(refs, container.Float32sToBytes(full))
	}
	boxes := scanBoxes(rand.New(rand.NewSource(3)), 64, 2, edge, brick)
	replay := func() (st [2]store.Stats) {
		cache := store.NewCache(int64(edge * edge * edge * 4 * 2 / 8))
		for i, p := range paths {
			s, err := store.OpenFile(p, store.Options{Cache: cache, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, b := range boxes {
				if b.field != i {
					continue
				}
				got, err := s.ReadRegion(ctx, b.lo[:], b.hi[:])
				if err != nil {
					t.Fatal(err)
				}
				if !matchesBox(container.Float32sToBytes(got), refs[i], edge, b) {
					t.Fatalf("%v: region differs from the full decode", b)
				}
			}
			st[i] = s.Stats()
			st[i].CachedBytes = 0
		}
		return st
	}
	if a, b := replay(), replay(); a != b {
		t.Errorf("replay does not repeat: %+v vs %+v", a, b)
	}
	bad := append([]byte(nil), refs[0]...)
	bad[len(bad)/2] ^= 1
	b := box{lo: [3]int{0, 0, 0}, hi: [3]int{edge, edge, edge}}
	if matchesBox(refs[0], bad, edge, b) {
		t.Error("matchesBox missed a flipped bit")
	}
	if matchesBox(refs[0][:len(refs[0])-4], refs[0], edge, b) {
		t.Error("matchesBox accepted a short body")
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables the command
// prints from: names, units, bounds, workloads and run length.
func TestBenchmarkJSONAgrees(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, command has %v", names, workloadNames)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, command prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, j, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, command prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if j := doc.PerLayer[i]; j.Name != d.name || j.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, j, d)
		}
	}
}

func TestMachineIndexIsGeometricMean(t *testing.T) {
	for _, c := range []struct {
		probes []reading
		want   float64
	}{
		{[]reading{{1, 1, 1}}, 1},
		{[]reading{{2, 0.5, 1}}, 1},
		{[]reading{{1.2, 1.2, 1.2}, {1.2, 1.2, 1.2}}, 1.2},
		{[]reading{{4, 1}, {1, 2}}, math.Pow(2, 0.75)},
	} {
		if got := machineIndex(c.probes); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("machineIndex(%v) = %g, want %g", c.probes, got, c.want)
		}
	}
}
