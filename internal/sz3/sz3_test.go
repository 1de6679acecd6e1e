package sz3

import (
	"math"
	"testing"

	"qoz/datagen"
	"qoz/internal/interp"
	"qoz/metrics"
)

func TestRoundTripRespectsBound(t *testing.T) {
	for _, ds := range datagen.AllSmall() {
		for _, rel := range []float64{1e-2, 1e-3} {
			eb := rel * metrics.ValueRange(ds.Data)
			buf, err := Compress(ds.Data, ds.Dims, eb)
			if err != nil {
				t.Fatalf("%s: Compress: %v", ds.Name, err)
			}
			recon, dims, err := Decompress(buf)
			if err != nil {
				t.Fatalf("%s: Decompress: %v", ds.Name, err)
			}
			if len(dims) != len(ds.Dims) {
				t.Fatalf("%s: dims %v, want %v", ds.Name, dims, ds.Dims)
			}
			maxErr, err := metrics.MaxAbsError(ds.Data, recon)
			if err != nil {
				t.Fatal(err)
			}
			if maxErr > eb*(1+1e-12) {
				t.Fatalf("%s eb=%g: max error %g exceeds bound", ds.Name, eb, maxErr)
			}
			cr := metrics.CompressionRatio(ds.Len(), len(buf))
			if cr < 1.2 {
				t.Errorf("%s eb=%g: CR %.2f suspiciously low", ds.Name, eb, cr)
			}
		}
	}
}

func TestCompressionImprovesWithLooserBound(t *testing.T) {
	ds := datagen.CESMATM(96, 160)
	vr := metrics.ValueRange(ds.Data)
	tight, err := Compress(ds.Data, ds.Dims, 1e-4*vr)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Compress(ds.Data, ds.Dims, 1e-2*vr)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) >= len(tight) {
		t.Fatalf("loose bound produced %d bytes >= tight %d", len(loose), len(tight))
	}
}

func TestValidation(t *testing.T) {
	data := make([]float32, 8)
	if _, err := Compress(data, []int{8}, 0); err == nil {
		t.Error("zero eb accepted")
	}
	if _, err := Compress(data, []int{8}, math.NaN()); err == nil {
		t.Error("NaN eb accepted")
	}
	if _, err := Compress(data, []int{9}, 0.1); err == nil {
		t.Error("mismatched dims accepted")
	}
	if _, err := Compress(data, []int{0}, 0.1); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, _, err := Decompress([]byte("not a stream")); err == nil {
		t.Error("garbage accepted")
	}
	// A valid container for a different codec must be rejected.
	buf, err := Compress(make([]float32, 16), []int{16}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	buf[5] = 99 // clobber codec id byte
	if _, _, err := Decompress(buf); err == nil {
		t.Error("wrong codec accepted")
	}
}

func TestConstantField(t *testing.T) {
	data := make([]float32, 4*4*4)
	for i := range data {
		data[i] = 7.5
	}
	buf, err := Compress(data, []int{4, 4, 4}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if math.Abs(float64(v)-7.5) > 1e-6 {
			t.Fatalf("constant field reconstructed %v at %d", v, i)
		}
	}
	if len(buf) > 200 {
		t.Errorf("constant field compressed to %d bytes; expected tiny stream", len(buf))
	}
}

func Test1DSignal(t *testing.T) {
	n := 1000
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 25))
	}
	buf, err := Compress(data, []int{n}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := metrics.MaxAbsError(data, recon)
	if maxErr > 1e-3 {
		t.Fatalf("max error %g", maxErr)
	}
}

func TestTrialErrorPrefersCubicOnSmooth(t *testing.T) {
	ds := datagen.Miranda(24, 32, 32)
	linErr := trialError(ds.Data, ds.Dims, 1e-3,
		interp.Method{Kind: interp.Linear, Order: interp.Increasing})
	cubErr := trialError(ds.Data, ds.Dims, 1e-3,
		interp.Method{Kind: interp.Cubic, Order: interp.Increasing})
	if cubErr >= linErr {
		t.Fatalf("cubic trial error %g should beat linear %g on smooth field", cubErr, linErr)
	}
}
