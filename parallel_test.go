package qoz

import (
	"context"
	"testing"

	"qoz/datagen"
	"qoz/metrics"
)

func TestCompressFieldsMatchesSequential(t *testing.T) {
	sets := datagen.AllSmall()[:4]
	fields := make([]Field, len(sets))
	for i, ds := range sets {
		fields[i] = Field{Name: ds.Name, Data: ds.Data, Dims: ds.Dims}
	}
	opts := Options{RelBound: 1e-3}
	par := EncodeFields(context.Background(), nil, fields, opts, 4)
	for i, ds := range sets {
		if par[i].Err != nil {
			t.Fatalf("%s: %v", ds.Name, par[i].Err)
		}
		seq, err := MustLookup(DefaultCodec).Compress(context.Background(), ds.Data, ds.Dims, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par[i].Bytes) {
			t.Fatalf("%s: parallel stream differs from sequential", ds.Name)
		}
		if par[i].Name != ds.Name {
			t.Fatalf("result order broken: %q at %d", par[i].Name, i)
		}
	}
	// Round-trip through DecodeFields.
	bufs := make([][]byte, len(par))
	names := make([]string, len(par))
	for i, r := range par {
		bufs[i] = r.Bytes
		names[i] = r.Name
	}
	back := DecodeFields(context.Background(), names, bufs, 0)
	for i, ds := range sets {
		if back[i].Err != nil {
			t.Fatalf("%s: decompress: %v", ds.Name, back[i].Err)
		}
		eb := 1e-3 * metrics.ValueRange(ds.Data)
		maxErr, _ := metrics.MaxAbsError(ds.Data, back[i].Data)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bound violated after parallel round trip", ds.Name)
		}
	}
}

func TestCompressFieldsErrorIsolation(t *testing.T) {
	fields := []Field{
		{Name: "good", Data: make([]float32, 16), Dims: []int{16}},
		{Name: "bad", Data: make([]float32, 16), Dims: []int{7}}, // dims mismatch
		{Name: "nil", Data: nil, Dims: []int{4}},
	}
	res := EncodeFields(context.Background(), nil, fields, Options{ErrorBound: 0.1}, 2)
	if res[0].Err != nil {
		t.Fatalf("good field failed: %v", res[0].Err)
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatal("bad fields should report errors")
	}
}

func TestCompressTargetPSNR(t *testing.T) {
	ds := datagen.CESMATM(128, 256)
	target := 60.0
	buf, st, err := CompressTargetPSNRContext(context.Background(), ds.Data, ds.Dims, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := MustLookup(DefaultCodec).Decompress(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := metrics.PSNR(ds.Data, recon)
	// The verify-and-tighten loop should land at or just below target.
	if psnr < target-1 {
		t.Fatalf("achieved %.1f dB, target %.1f", psnr, target)
	}
	if st.AbsBound <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A much higher target must yield a tighter bound (larger stream).
	buf2, _, err := CompressTargetPSNRContext(context.Background(), ds.Data, ds.Dims, 90, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf2) <= len(buf) {
		t.Fatalf("higher-quality target produced smaller stream: %d vs %d", len(buf2), len(buf))
	}
}

func TestCompressTargetPSNRValidation(t *testing.T) {
	if _, _, err := CompressTargetPSNRContext(context.Background(), make([]float32, 8), []int{8}, -5, Options{}); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestCompressTargetPSNRConstantField(t *testing.T) {
	data := make([]float32, 32)
	for i := range data {
		data[i] = 3
	}
	buf, _, err := CompressTargetPSNRContext(context.Background(), data, []int{32}, 80, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := MustLookup(DefaultCodec).Decompress(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range recon {
		if v != 3 {
			t.Fatalf("constant field value %v", v)
		}
	}
}
