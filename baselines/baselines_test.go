package baselines

import (
	"strings"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/container"
	"qoz/metrics"
)

func TestAllCodecsRoundTrip(t *testing.T) {
	ds := datagen.NYX(24, 24, 24)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, c := range All(qoz.TuneCR) {
		buf, err := c.Compress(ds.Data, ds.Dims, eb)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		recon, dims, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", c.Name(), err)
		}
		if len(dims) != 3 {
			t.Fatalf("%s: dims %v", c.Name(), dims)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: bound violated: %g > %g", c.Name(), maxErr, eb)
		}
	}
}

func TestCrossCodecStreamsRejected(t *testing.T) {
	ds := datagen.CESMATM(48, 64)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	bufSZ3, err := SZ3().Compress(ds.Data, ds.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SZ2().Decompress(bufSZ3); err == nil {
		t.Fatal("SZ2 accepted an SZ3 stream")
	}
	if _, _, err := ZFP().Decompress(bufSZ3); err == nil {
		t.Fatal("ZFP accepted an SZ3 stream")
	}
}

func TestNames(t *testing.T) {
	want := []string{"SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ"}
	for i, c := range All(qoz.TuneCR) {
		if c.Name() != want[i] {
			t.Fatalf("codec %d name %q, want %q", i, c.Name(), want[i])
		}
	}
	if QoZ(qoz.TunePSNR).Name() != "QoZ(psnr)" {
		t.Fatal("QoZ psnr name wrong")
	}
	if QoZ(qoz.TuneSSIM).Name() != "QoZ(ssim)" {
		t.Fatal("QoZ ssim name wrong")
	}
	if QoZ(qoz.TuneAC).Name() != "QoZ(ac)" {
		t.Fatal("QoZ ac name wrong")
	}
}

// TestLiteralCountMismatchRejected: the prediction codecs keep escaped
// values in a literals section (id 2 in all three framings) beside a bin
// stream that says where they go, and the container has no checksum. A
// stream with one literal dropped or one added used to decode — to wrong
// samples, or with the surplus ignored — and must be refused.
func TestLiteralCountMismatchRejected(t *testing.T) {
	const secLiterals = 2
	ds := datagen.NYX(24, 24, 24)
	data := append([]float32(nil), ds.Data...)
	for i := 5; i < len(data); i += 97 {
		data[i] = 1e30 // far outside the quantizer's radius: escapes
	}
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	for _, c := range []Codec{SZ2(), SZ3(), MGARD()} {
		buf, err := c.Compress(data, ds.Dims, eb)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for name, mutate := range map[string]func([]byte) []byte{
			"dropped": func(lits []byte) []byte { return lits[:len(lits)-4] },
			"added":   func(lits []byte) []byte { return append(lits, 0, 0, 128, 63) },
		} {
			s, err := container.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for i := range s.Sections {
				if s.Sections[i].ID == secLiterals && len(s.Sections[i].Data) >= 4 {
					s.Sections[i].Data = mutate(s.Sections[i].Data)
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: stream holds no literals; the case lost its footing", c.Name())
			}
			bad, err := container.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Decompress(bad); err == nil || !strings.Contains(err.Error(), "literal") {
				t.Fatalf("%s, one literal %s: decoded with error %v", c.Name(), name, err)
			}
		}
	}
}
