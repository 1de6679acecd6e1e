package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramObserve pins bucket assignment: values land in the first
// bucket whose upper bound is >= the value (Prometheus le semantics).
func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cum, count, sum := h.Snapshot()
	if count != 5 {
		t.Fatalf("count %d, want 5", count)
	}
	// Cumulative: le=0.01 -> 2 (0.005, 0.01 inclusive), le=0.1 -> 3, le=1 -> 4, +Inf -> 5.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, cum[i], w, cum)
		}
	}
	if got, want := sum, 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum %v, want %v", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// under -race: no lost observations, and count == sum of buckets.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefBuckets)
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	wg.Wait()
	_, count, sum := h.Snapshot()
	if count != goroutines*per {
		t.Fatalf("count %d, want %d", count, goroutines*per)
	}
	if sum <= 0 {
		t.Fatalf("sum %v, want > 0", sum)
	}
}

// TestHistogramVecConcurrent exercises the child-creation race: many
// goroutines observing into overlapping new label sets.
func TestHistogramVecConcurrent(t *testing.T) {
	v := NewHistogramVec("x_seconds", "test", []string{"route", "status"}, DefBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.Observe(0.01, fmt.Sprintf("r%d", i%5), "200")
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	v.WriteProm(&b)
	if err := LintExposition(b.String()); err != nil {
		t.Fatalf("rendered exposition fails lint: %v\n%s", err, b.String())
	}
	if got := strings.Count(b.String(), "x_seconds_count{"); got != 5 {
		t.Fatalf("%d children rendered, want 5:\n%s", got, b.String())
	}
}

// TestHistogramVecDeterministic renders twice and wants identical bytes.
func TestHistogramVecDeterministic(t *testing.T) {
	v := NewHistogramVec("y_seconds", "test", []string{"route"}, []float64{0.1, 1})
	for _, r := range []string{"zeta", "alpha", "mid"} {
		v.Observe(0.5, r)
	}
	var a, b strings.Builder
	v.WriteProm(&a)
	v.WriteProm(&b)
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	// Children sorted: alpha before mid before zeta.
	s := a.String()
	if !(strings.Index(s, `route="alpha"`) < strings.Index(s, `route="mid"`) &&
		strings.Index(s, `route="mid"`) < strings.Index(s, `route="zeta"`)) {
		t.Fatalf("children not sorted:\n%s", s)
	}
}

// TestTraceSpans pins the span tree: parent/child links, offsets, attrs,
// and publication into the ring on root End.
func TestTraceSpans(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := rec.StartTrace(context.Background(), "req-1", "GET region")
	if root == nil {
		t.Fatal("nil root span")
	}
	cctx, child := StartSpan(ctx, "fanout")
	_, grand := StartSpan(cctx, "subread")
	grand.Annotate("shard", "http://s0")
	grand.End()
	child.End()
	if got := rec.Snapshot(10, 0); len(got) != 0 {
		t.Fatalf("trace published before root End: %d", len(got))
	}
	root.Annotate("status", "200")
	root.End()

	traces := rec.Snapshot(10, 0)
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != "req-1" || tr.Name != "GET region" {
		t.Fatalf("trace %q/%q", tr.ID, tr.Name)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.Spans))
	}
	if tr.Spans[0].Parent != 0 || tr.Spans[1].Parent != tr.Spans[0].ID || tr.Spans[2].Parent != tr.Spans[1].ID {
		t.Fatalf("parent links wrong: %+v", tr.Spans)
	}
	if tr.Spans[2].Attrs["shard"] != "http://s0" {
		t.Fatalf("grandchild attrs %v", tr.Spans[2].Attrs)
	}
	for i, sd := range tr.Spans {
		if sd.DurationMS < 0 {
			t.Errorf("span %d never ended: %+v", i, sd)
		}
		if sd.StartMS < 0 {
			t.Errorf("span %d negative offset: %+v", i, sd)
		}
	}
	if tr.DurationMS != tr.Spans[0].DurationMS {
		t.Errorf("trace duration %v != root span %v", tr.DurationMS, tr.Spans[0].DurationMS)
	}
	// The published trace survives JSON marshalling (the /debug/traces shape).
	if _, err := json.Marshal(traces); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The published trace is sealed: annotating after publish must not show up.
	grand.Annotate("late", "x")
	if _, ok := rec.Snapshot(10, 0)[0].Spans[2].Attrs["late"]; ok {
		t.Error("late annotation mutated the published trace")
	}
}

// TestSealedTraceIgnoresStragglers: once the root span ends, the
// published trace is the live one, sealed. A child still running — ending,
// annotating, opening spans of its own, on other goroutines while the
// trace is marshalled — changes nothing in it, and -race sees no write
// to what the recorder hands out.
func TestSealedTraceIgnoresStragglers(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := rec.StartTrace(context.Background(), "req-1", "GET region")
	cctx, child := StartSpan(ctx, "fanout")
	root.End()
	tr := root.TraceData()
	if tr == nil || rec.Snapshot(1, 0)[0] != tr {
		t.Fatal("the trace the root span published is not the recorder's")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, sp := StartSpan(cctx, "late"); sp != nil {
					t.Error("StartSpan under a sealed trace returned a span")
					return
				}
				child.Annotate("late", "x")
				child.End()
				root.End()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, err := json.Marshal(rec.Snapshot(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if len(tr.Spans) != 2 || tr.Spans[1].DurationMS != -1 || tr.Spans[1].Attrs != nil {
		t.Errorf("a sealed trace changed: %+v", tr.Spans)
	}
	if rec.Total() != 1 {
		t.Errorf("%d traces published, want 1", rec.Total())
	}
}

// TestTraceNilSafety: instrumented code must run identically with no
// trace in the context and on nil spans.
func TestTraceNilSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "orphan")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a trace must be a no-op")
	}
	sp.Annotate("k", "v") // must not panic
	sp.End()
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on empty ctx")
	}
	var r *Recorder
	if _, root := r.StartTrace(ctx, "x", "y"); root != nil {
		t.Fatal("nil recorder must hand out nil spans")
	}
	if r.Snapshot(1, 0) != nil || r.Total() != 0 {
		t.Fatal("nil recorder snapshot")
	}
}

// TestRecorderRing fills the ring past capacity concurrently under -race
// and checks the bound, eviction order, and the min-duration filter.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, root := rec.StartTrace(context.Background(), fmt.Sprintf("g%d-%d", g, i), "op")
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := rec.Total(); got != 200 {
		t.Fatalf("total %d, want 200", got)
	}
	traces := rec.Snapshot(0, 0)
	if len(traces) != 8 {
		t.Fatalf("ring holds %d, want 8", len(traces))
	}
	if got := rec.Snapshot(3, 0); len(got) != 3 {
		t.Fatalf("limited snapshot %d, want 3", len(got))
	}
	// Newest first: publish one more and it must lead the snapshot.
	_, root := rec.StartTrace(context.Background(), "last", "op")
	time.Sleep(2 * time.Millisecond) // make it measurably long for the filter below
	root.End()
	if got := rec.Snapshot(1, 0); len(got) != 1 || got[0].ID != "last" {
		t.Fatalf("snapshot head %+v, want id last", got)
	}
	// Min-duration filter: only the deliberately slow trace survives 1ms.
	slow := rec.Snapshot(0, time.Millisecond)
	for _, tr := range slow {
		if tr.DurationMS < 1 {
			t.Fatalf("filter leaked %vms trace", tr.DurationMS)
		}
	}
	if len(slow) == 0 {
		t.Fatal("min-duration filter dropped the slow trace")
	}
}

// TestConcurrentSpansOneTrace opens and annotates spans of one trace from
// many goroutines — the gateway fan-out shape — under -race.
func TestConcurrentSpansOneTrace(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := rec.StartTrace(context.Background(), "fan", "GET region")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, sp := StartSpan(ctx, "subread")
			sp.Annotate("shard", fmt.Sprintf("s%d", g))
			_, att := StartSpan(sctx, "shard.get")
			att.End()
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	tr := rec.Snapshot(1, 0)[0]
	if len(tr.Spans) != 1+2*16 {
		t.Fatalf("%d spans, want %d", len(tr.Spans), 1+2*16)
	}
	subs := 0
	for _, sd := range tr.Spans {
		if sd.Name == "subread" {
			subs++
			if sd.Parent != 1 {
				t.Errorf("subread parent %d, want root", sd.Parent)
			}
		}
	}
	if subs != 16 {
		t.Fatalf("%d subread spans, want 16", subs)
	}
}

// TestLintExposition feeds the linter good and bad scrapes.
func TestLintExposition(t *testing.T) {
	good := strings.Join([]string{
		"# HELP a_total things",
		"# TYPE a_total counter",
		`a_total{x="1"} 3`,
		`a_total{x="2"} 4`,
		"# HELP b_bytes bytes",
		"# TYPE b_bytes gauge",
		"b_bytes 17",
		"",
	}, "\n")
	if err := LintExposition(good); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}

	cases := []struct {
		name, text string
	}{
		{"missing HELP", "# TYPE x counter\nx 1\n"},
		{"missing TYPE", "# HELP x hi\nx 1\n"},
		{"duplicate series", "# HELP x hi\n# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n"},
		{"unsorted series", "# HELP x hi\n# TYPE x counter\nx{a=\"2\"} 1\nx{a=\"1\"} 2\n"},
		{"unsorted label names", "# HELP x hi\n# TYPE x counter\nx{b=\"1\",a=\"2\"} 1\n"},
		{"bad value", "# HELP x hi\n# TYPE x counter\nx pear\n"},
		{"interleaved families", "# HELP x hi\n# TYPE x counter\n# HELP y hi\n# TYPE y counter\nx 1\ny 2\nx 3\n"},
		{"histogram le not ascending", "# HELP h hi\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"histogram not cumulative", "# HELP h hi\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.5\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"histogram Inf != count", "# HELP h hi\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"histogram missing Inf", "# HELP h hi\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		if err := LintExposition(tc.text); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.text)
		}
	}

	// A real rendered histogram family passes.
	v := NewHistogramVec("qozd_request_duration_seconds", "latency", []string{"route", "status"}, DefBuckets)
	v.Observe(0.02, "region", "200")
	v.Observe(0.3, "region", "200")
	v.Observe(0.004, "fields", "200")
	var b strings.Builder
	v.WriteProm(&b)
	if err := LintExposition(b.String()); err != nil {
		t.Fatalf("rendered histogram rejected: %v\n%s", err, b.String())
	}
}
