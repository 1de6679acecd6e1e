package parallelio

import (
	"context"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

func TestSimulateBasics(t *testing.T) {
	m := Bebop()
	p := CodecProfile{Name: "x", CompressMBps: 100, DecompressMBps: 300, Ratio: 20}
	r, err := Simulate(m, p, 1000, 1.3e9)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalGB != 1300 {
		t.Fatalf("TotalGB = %v", r.TotalGB)
	}
	if r.StoredGB != 65 {
		t.Fatalf("StoredGB = %v", r.StoredGB)
	}
	if r.DumpSecs <= 0 || r.LoadSecs <= 0 || r.DumpGBps <= 0 {
		t.Fatalf("non-positive results: %+v", r)
	}
}

func TestHigherRatioWinsAtScale(t *testing.T) {
	// At saturated bandwidth, the codec with 2x ratio must dump faster
	// even if it compresses somewhat slower — the Fig. 14 crossover.
	m := Bebop()
	fast := CodecProfile{Name: "fast-lowCR", CompressMBps: 400, DecompressMBps: 800, Ratio: 10}
	slow := CodecProfile{Name: "slow-highCR", CompressMBps: 120, DecompressMBps: 350, Ratio: 60}
	rFast, _ := Simulate(m, fast, 8000, 1.3e9)
	rSlow, _ := Simulate(m, slow, 8000, 1.3e9)
	if rSlow.DumpGBps <= rFast.DumpGBps {
		t.Fatalf("high-CR codec should win at 8K cores: %v vs %v GB/s",
			rSlow.DumpGBps, rFast.DumpGBps)
	}
	// At very small scale the write phase is not saturated, so the fast
	// codec's compute advantage matters more.
	rFastSmall, _ := Simulate(m, fast, 8, 1.3e9)
	rSlowSmall, _ := Simulate(m, slow, 8, 1.3e9)
	if rFastSmall.DumpGBps <= rSlowSmall.DumpGBps {
		t.Fatalf("fast codec should win at 8 cores: %v vs %v GB/s",
			rFastSmall.DumpGBps, rSlowSmall.DumpGBps)
	}
}

func TestThroughputSaturates(t *testing.T) {
	m := Bebop()
	p := RawProfile()
	r1, _ := Simulate(m, p, 1000, 1.3e9)
	r8, _ := Simulate(m, p, 8000, 1.3e9)
	// Raw dumping is bandwidth-bound: 8x cores cannot give 8x throughput.
	if r8.DumpGBps > 1.5*r1.DumpGBps {
		t.Fatalf("raw dump should saturate: %v vs %v", r8.DumpGBps, r1.DumpGBps)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Bebop(), RawProfile(), 0, 1e9); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := Simulate(Bebop(), CodecProfile{}, 10, 1e9); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestProfileMeasuresRealCodec(t *testing.T) {
	ds := datagen.Hurricane(12, 64, 64)
	opts := qoz.Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data)}
	p, err := ProfileCodec(context.Background(), qoz.MustLookup("sz3"), ds.Data, ds.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ratio <= 1 {
		t.Fatalf("measured ratio %v", p.Ratio)
	}
	if p.CompressMBps <= 0 || p.DecompressMBps <= 0 {
		t.Fatalf("measured speeds %+v", p)
	}
	if p.Name != "sz3" {
		t.Fatalf("name %q", p.Name)
	}
	if _, err := ProfileCodec(context.Background(), qoz.MustLookup("qoz"), ds.Data, ds.Dims, opts); err != nil {
		t.Fatal(err)
	}
}
