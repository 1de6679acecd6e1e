package harness

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// paperCompressors is every entry the experiments run: the five-codec
// line-up with QoZ once per tuning mode.
var paperCompressors = []Compressor{sz2, sz3, zfp, mgard, qozCR, qozPSNR, qozSSIM, qozAC}

// TestAllCodecsRoundTrip: each compressor the experiments run decodes its
// own stream to the input's shape, within the bound it was given.
func TestAllCodecsRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(24, 24, 24)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, c := range paperCompressors {
		buf, err := c.Codec.Compress(ctx, ds.Data, ds.Dims, c.at(eb))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		recon, dims, err := c.Codec.Decompress(ctx, buf)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", c.Name, err)
		}
		if len(dims) != 3 || dims[0] != 24 || dims[1] != 24 || dims[2] != 24 {
			t.Fatalf("%s: dims %v", c.Name, dims)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bound violated: %g > %g", c.Name, maxErr, eb)
		}
	}
}

// TestNames pins the names the tables print, the registry codec behind
// each and the tuning mode each QoZ entry runs in.
func TestNames(t *testing.T) {
	want := []struct {
		name, codec string
		metric      qoz.Tuning
	}{
		{"SZ2.1", "sz2", 0}, {"SZ3", "sz3", 0}, {"ZFP", "zfp", 0}, {"MGARD+", "mgard", 0},
		{"QoZ", "qoz", qoz.TuneCR}, {"QoZ(psnr)", "qoz", qoz.TunePSNR},
		{"QoZ(ssim)", "qoz", qoz.TuneSSIM}, {"QoZ(ac)", "qoz", qoz.TuneAC},
	}
	for i, c := range paperCompressors {
		w := want[i]
		if c.Name != w.name || c.Codec.Name() != w.codec || c.Opts.Metric != w.metric {
			t.Fatalf("compressor %d = %q on %q metric %v, want %q on %q metric %v",
				i, c.Name, c.Codec.Name(), c.Opts.Metric, w.name, w.codec, w.metric)
		}
	}
	for i, c := range lineup(qozCR) {
		if c.Name != want[i].name {
			t.Fatalf("line-up entry %d is %q, want %q", i, c.Name, want[i].name)
		}
	}
}

func TestRunCodecCollectsMetrics(t *testing.T) {
	ds := datagen.NYX(24, 24, 24)
	r, err := RunCodec(sz3, ds, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if r.CR <= 1 || r.BitRate <= 0 || r.PSNR <= 0 {
		t.Fatalf("run = %+v", r)
	}
	if r.MaxErr > r.AbsBound*(1+1e-12) {
		t.Fatalf("bound violated in harness run")
	}
	if r.SSIM <= 0 || r.SSIM > 1.0001 {
		t.Fatalf("SSIM = %v", r.SSIM)
	}
}

func TestMatchCRApproachesTarget(t *testing.T) {
	ds := datagen.CESMATM(96, 160)
	r, err := MatchCR(sz3, ds, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.CR < 15 || r.CR > 60 {
		t.Fatalf("MatchCR(30) landed at CR=%.1f", r.CR)
	}
}

func TestFig7NoExceedances(t *testing.T) {
	res, err := Fig7(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for _, r := range res {
		if !r.InBound || r.Exceedance != 0 {
			t.Fatalf("bound violated: %+v", r)
		}
		total := 0
		for _, h := range r.Histogram {
			total += h
		}
		if total == 0 {
			t.Fatalf("empty histogram: %+v", r)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	cells, err := Table3(&buf, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 { // 6 datasets x 2 bounds
		t.Fatalf("got %d cells", len(cells))
	}
	// Headline shape: QoZ beats ZFP everywhere and wins or roughly ties
	// SZ3 on a majority of cells.
	qozWins := 0
	for _, c := range cells {
		if c.CR["QoZ"] <= c.CR["ZFP"] {
			t.Errorf("%s ε=%g: QoZ CR %.1f <= ZFP %.1f", c.Dataset, c.RelBound, c.CR["QoZ"], c.CR["ZFP"])
		}
		if c.CR["QoZ"] >= 0.95*c.CR["SZ3"] {
			qozWins++
		}
	}
	if qozWins < len(cells)*2/3 {
		t.Errorf("QoZ competitive with SZ3 in only %d/%d cells", qozWins, len(cells))
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("missing table header")
	}
}

func TestFig10ACModeBeatsPSNRMode(t *testing.T) {
	cfg := Quick()
	cfg.Sweep = []float64{1e-2, 1e-3}
	curves, err := Fig10(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate |AC| across datasets and bounds: AC-preferred mode should
	// not be worse than PSNR-preferred mode overall.
	var acMode, psnrMode float64
	for _, rc := range curves {
		for _, p := range rc.Curves["QoZ(ac)"] {
			acMode += abs(p.AC)
		}
		for _, p := range rc.Curves["QoZ(psnr)"] {
			psnrMode += abs(p.AC)
		}
	}
	if acMode > psnrMode*1.05 {
		t.Errorf("AC-preferred mode worse on its own metric: %.3f vs %.3f", acMode, psnrMode)
	}
}

func TestFig12AblationMonotone(t *testing.T) {
	cfg := Quick()
	cfg.Sweep = []float64{1e-3}
	res, err := Fig12(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for dsName, pts := range res {
		if len(pts) != 5 {
			t.Fatalf("%s: %d variants", dsName, len(pts))
		}
		// Full QoZ should not be worse than plain SZ3-like config on
		// bit-rate at (roughly) the same bound-driven quality.
		base, full := pts[0], pts[4]
		if full.BitRate > base.BitRate*1.15 && full.PSNR < base.PSNR {
			t.Errorf("%s: QoZ (%.3fbpp/%.1fdB) worse than SZ3 config (%.3fbpp/%.1fdB)",
				dsName, full.BitRate, full.PSNR, base.BitRate, base.PSNR)
		}
	}
}

func TestFig13AutoTracksEnvelope(t *testing.T) {
	cfg := Quick()
	cfg.Sweep = []float64{1e-3}
	res, err := Fig13(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for dsName, pts := range res {
		var auto Fig13Point
		bestFixed := 0.0
		for _, p := range pts {
			if p.Setting == "autotuning" {
				auto = p
			} else if p.PSNR > bestFixed {
				bestFixed = p.PSNR
			}
		}
		// Auto-tuning should be within a few dB of the best fixed setting
		// (it optimizes a sampled estimate).
		if auto.PSNR < bestFixed-5 {
			t.Errorf("%s: auto %.1f dB far below best fixed %.1f dB", dsName, auto.PSNR, bestFixed)
		}
	}
}

func TestTable4ProducesSpeeds(t *testing.T) {
	rows, err := Table4(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for name, v := range r.CompMBps {
			if v <= 0 {
				t.Fatalf("%s/%s: speed %v", r.Dataset, name, v)
			}
		}
	}
}

func TestFig14QoZLeadsAtScale(t *testing.T) {
	pts, err := Fig14(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	best := map[int]string{}
	bestV := map[int]float64{}
	for _, p := range pts {
		if p.Codec == "raw" {
			continue
		}
		if p.DumpGBps > bestV[p.Cores] {
			bestV[p.Cores] = p.DumpGBps
			best[p.Cores] = p.Codec
		}
	}
	// At 8K cores the saturated filesystem makes compression ratio king:
	// a multilevel compressor must lead, and the low-ratio codecs must not.
	if best[8192] == "SZ2.1" || best[8192] == "ZFP" || best[8192] == "raw" {
		t.Errorf("at 8K cores a high-ratio multilevel compressor should lead, got %s", best[8192])
	}
}

func TestFig11MatchedCR(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig11(&buf, Quick(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d codecs", len(res))
	}
	// Results are sorted by PSNR; QoZ or SZ3 should top the list (paper:
	// QoZ has the best visual quality at the same CR).
	if res[0].Codec != "QoZ(psnr)" && res[0].Codec != "SZ3" {
		t.Errorf("top codec at matched CR = %s", res[0].Codec)
	}
}

func TestFig4ArtifactMeasures(t *testing.T) {
	dir := t.TempDir()
	res, err := Fig4(io.Discard, Quick(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d codecs", len(res))
	}
	for _, r := range res {
		if r.ClusterScore < 0 || r.ClusterScore > 1 {
			t.Fatalf("%s: cluster score %v out of range", r.Codec, r.ClusterScore)
		}
	}
	// The rendered error maps must exist.
	matches, err := filepath.Glob(filepath.Join(dir, "fig4_err_*.pgm"))
	if err != nil || len(matches) != 3 {
		t.Fatalf("rendered %d error maps (%v)", len(matches), err)
	}
}

func TestRenderSlicePGM(t *testing.T) {
	ds := datagen.CESMATM(32, 48)
	var buf bytes.Buffer
	if err := RenderSlice(&buf, ds.Data, ds.Dims, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P5\n48 32\n255\n") {
		t.Fatalf("bad PGM header: %q", buf.String()[:20])
	}
	if buf.Len() < 48*32 {
		t.Fatalf("PGM payload too short: %d", buf.Len())
	}
	ds3 := datagen.NYX(8, 8, 8)
	buf.Reset()
	if err := RenderSlice(&buf, ds3.Data, ds3.Dims, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := RenderSlice(io.Discard, make([]float32, 4), []int{4}, 0, 0); err == nil {
		t.Fatal("1D render accepted")
	}
}
