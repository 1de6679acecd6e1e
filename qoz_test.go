package qoz

import (
	"bytes"
	"context"
	"testing"

	"qoz/datagen"
	"qoz/metrics"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	buf, err := MustLookup(DefaultCodec).Compress(context.Background(), ds.Data, ds.Dims, Options{RelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := MustLookup(DefaultCodec).Decompress(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 {
		t.Fatalf("dims = %v", dims)
	}
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
	if maxErr > eb*(1+1e-12) {
		t.Fatalf("max error %g > %g", maxErr, eb)
	}
}

func TestOptionValidation(t *testing.T) {
	data := make([]float32, 16)
	if _, err := MustLookup(DefaultCodec).Compress(context.Background(), data, []int{16}, Options{}); err == nil {
		t.Error("missing bound accepted")
	}
	if _, err := MustLookup(DefaultCodec).Compress(context.Background(), data, []int{16}, Options{ErrorBound: 0.1, RelBound: 0.1}); err == nil {
		t.Error("both bounds accepted")
	}
}

func TestRelBoundOnConstantField(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = 2.5
	}
	buf, err := MustLookup(DefaultCodec).Compress(context.Background(), data, []int{64}, Options{RelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := MustLookup(DefaultCodec).Decompress(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range recon {
		if v != 2.5 {
			t.Fatalf("constant field value %v", v)
		}
	}
}

// A negative SampleBlock selects the default, as 0 does, instead of
// panicking in the sample planner.
func TestNegativeSampleBlockIsDefault(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	ctx := context.Background()
	want, err := Encode(ctx, nil, ds.Data, ds.Dims, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(ctx, nil, ds.Data, ds.Dims, Options{ErrorBound: 1e-3, SampleBlock: -5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SampleBlock -5: %d bytes differ from SampleBlock 0's %d", len(got), len(want))
	}
}

func TestCompressStats(t *testing.T) {
	ds := datagen.CESMATM(96, 160)
	buf, st, err := CompressStats(ds.Data, ds.Dims, Options{RelBound: 1e-3, Metric: TunePSNR})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 || st.AbsBound <= 0 || st.Alpha < 1 || st.Beta < 1 || st.Levels == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTuningString(t *testing.T) {
	if TunePSNR.String() != "psnr" {
		t.Fatalf("TunePSNR = %q", TunePSNR.String())
	}
}
