package core

import (
	"math"
	"testing"

	"qoz/datagen"
	"qoz/internal/interp"
	"qoz/metrics"
)

func TestRoundTripAllModes(t *testing.T) {
	ds := datagen.CESMATM(96, 160)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, mode := range []Mode{ModeCR, ModePSNR, ModeSSIM, ModeAC} {
		buf, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb, Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		recon, dims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("mode %v: Decompress: %v", mode, err)
		}
		if dims[0] != 96 || dims[1] != 160 {
			t.Fatalf("mode %v: dims %v", mode, dims)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("mode %v: max error %g > bound %g", mode, maxErr, eb)
		}
	}
}

func TestRoundTripAllDatasets(t *testing.T) {
	for _, ds := range datagen.AllSmall() {
		for _, rel := range []float64{1e-2, 1e-4} {
			eb := rel * metrics.ValueRange(ds.Data)
			buf, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb})
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			recon, _, err := Decompress(buf)
			if err != nil {
				t.Fatalf("%s: Decompress: %v", ds.Name, err)
			}
			maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
			if maxErr > eb*(1+1e-12) {
				t.Fatalf("%s rel=%g: max error %g > bound %g", ds.Name, rel, maxErr, eb)
			}
		}
	}
}

func TestFixedModeRoundTrip(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, p := range []struct{ a, b float64 }{{1, 1}, {1.5, 3}, {2, 4}} {
		res, err := CompressDetailed(ds.Data, ds.Dims, Options{
			ErrorBound: eb, Mode: ModeFixed, Alpha: p.a, Beta: p.b,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Alpha != p.a || res.Beta != p.b {
			t.Fatalf("fixed params not honored: got (%v,%v)", res.Alpha, res.Beta)
		}
		recon, _, err := Decompress(res.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("(α=%v β=%v): max error %g > bound %g", p.a, p.b, maxErr, eb)
		}
	}
}

func TestLevelBoundPolicy(t *testing.T) {
	eb := 0.1
	// e_1 must equal e regardless of parameters.
	if got := interp.LevelBound(eb, 2, 4, 1); got != eb {
		t.Fatalf("level-1 bound %v, want %v", got, eb)
	}
	// Bounds must be non-increasing with level and never exceed e.
	prev := math.Inf(1)
	for l := 1; l <= 8; l++ {
		b := interp.LevelBound(eb, 1.5, 3, l)
		if b > eb {
			t.Fatalf("level %d bound %v exceeds e", l, b)
		}
		if b > prev {
			t.Fatalf("level %d bound %v not monotone", l, b)
		}
		prev = b
	}
	// β caps the divisor.
	if got := interp.LevelBound(eb, 2, 4, 10); got != eb/4 {
		t.Fatalf("capped bound %v, want %v", got, eb/4)
	}
}

func TestAblationSwitchesRoundTrip(t *testing.T) {
	ds := datagen.Miranda(24, 32, 32)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	variants := []Options{
		{ErrorBound: eb, DisableAnchors: true, DisableSampling: true, DisableLevelSelect: true, DisableParamTuning: true},
		{ErrorBound: eb, DisableSampling: true, DisableLevelSelect: true, DisableParamTuning: true},
		{ErrorBound: eb, DisableLevelSelect: true, DisableParamTuning: true},
		{ErrorBound: eb, DisableParamTuning: true},
		{ErrorBound: eb},
	}
	for i, o := range variants {
		buf, err := Compress(ds.Data, ds.Dims, o)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		recon, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("variant %d: Decompress: %v", i, err)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("variant %d: max error %g > bound", i, maxErr)
		}
	}
}

func TestAnchorsHelpOnRegionallyVaryingData(t *testing.T) {
	// The Fig. 4 / Table III motivation: anchors should not hurt, and on
	// Miranda-like regionally varying data the anchored pipeline should
	// compress at least as well as the anchor-free one at equal bound.
	ds := datagen.Miranda(48, 64, 64)
	eb := 1e-2 * metrics.ValueRange(ds.Data)
	with, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb, DisableParamTuning: true, DisableLevelSelect: true, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb, DisableParamTuning: true, DisableLevelSelect: true, DisableSampling: true, DisableAnchors: true})
	if err != nil {
		t.Fatal(err)
	}
	crWith := metrics.CompressionRatio(ds.Len(), len(with))
	crWithout := metrics.CompressionRatio(ds.Len(), len(without))
	if crWith < 0.9*crWithout {
		t.Fatalf("anchored CR %.1f much worse than global CR %.1f", crWith, crWithout)
	}
}

func TestTuningBeatsOrMatchesWorstFixed(t *testing.T) {
	// The auto-tuner (ModeCR) should produce a bit-rate no worse than the
	// worst fixed candidate, and close to the best fixed candidate.
	ds := datagen.CESMATM(128, 256)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	auto, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb, Mode: ModeCR})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, p := range []struct{ a, b float64 }{{1, 1}, {2, 4}} {
		buf, err := Compress(ds.Data, ds.Dims, Options{ErrorBound: eb, Mode: ModeFixed, Alpha: p.a, Beta: p.b})
		if err != nil {
			t.Fatal(err)
		}
		sizes["fixed"] = len(buf)
		worst := len(buf)
		if worst > sizes["worst"] {
			sizes["worst"] = worst
		}
	}
	if len(auto) > sizes["worst"]*11/10 {
		t.Fatalf("auto-tuned size %d clearly worse than worst fixed %d", len(auto), sizes["worst"])
	}
}

func TestResultReportsMethods(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	res, err := CompressDetailed(ds.Data, ds.Dims, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) == 0 {
		t.Fatal("no methods reported")
	}
	if res.Alpha < 1 || res.Beta < 1 {
		t.Fatalf("invalid tuned params (%v, %v)", res.Alpha, res.Beta)
	}
}

func TestValidation(t *testing.T) {
	data := make([]float32, 8)
	if _, err := Compress(data, []int{8}, Options{}); err == nil {
		t.Error("zero eb accepted")
	}
	if _, err := Compress(data, []int{4}, Options{ErrorBound: 0.1}); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := Compress(data, []int{2, 2, 2, 1, 1}, Options{ErrorBound: 0.1}); err == nil {
		t.Error("5D accepted")
	}
	if _, _, err := Decompress([]byte("junk")); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	o := Options{AnchorStride: 32}
	methods := []interp.Method{
		{Kind: interp.Cubic, Order: interp.Increasing},
		{Kind: interp.Linear, Order: interp.Decreasing},
	}
	dims := []int{40, 50}
	buf := encodeConfig(&interp.Pyramid{Anchor: o.AnchorStride, Methods: methods, Alpha: 1.5, Beta: 3}, o.AnchorStride)
	c, err := decodeConfig(buf, dims, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Alpha != 1.5 || c.Beta != 3 || c.Anchor != 32 || c.EB != 0.5 || len(c.Dims) != 2 {
		t.Fatalf("config = %+v", c)
	}
	if len(c.Methods) != 2 || c.Methods[1].Order != interp.Decreasing {
		t.Fatalf("methods = %v", c.Methods)
	}
	// Corruptions must be rejected.
	if _, err := decodeConfig(buf[:4], dims, 0.5); err == nil {
		t.Error("truncated config accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-2] = 9 // invalid kind
	if _, err := decodeConfig(bad, dims, 0.5); err == nil {
		t.Error("invalid method accepted")
	}
}

func TestSmallInputs(t *testing.T) {
	// Inputs smaller than anchor stride / sample block must still work.
	for _, dims := range [][]int{{5}, {3, 3}, {2, 3, 4}, {1, 1, 7}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i % 5)
		}
		buf, err := Compress(data, dims, Options{ErrorBound: 0.01})
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		recon, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("dims %v: Decompress: %v", dims, err)
		}
		maxErr, _ := metrics.MaxAbsError(data, recon)
		if maxErr > 0.01*(1+1e-12) {
			t.Fatalf("dims %v: max error %g", dims, maxErr)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModePSNR.String() != "psnr" || ModeFixed.String() != "fixed" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still print")
	}
}
