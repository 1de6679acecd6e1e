package szstream

import (
	"math"
	"testing"

	"qoz/internal/container"
)

func TestRoundTrip(t *testing.T) {
	p := &Payload{
		Bins:     []uint32{5, 5, 5, 9, 0, 32768, 70000},
		Literals: []float32{1.5, float32(math.Inf(-1))},
		Anchors:  []float32{0, -3.25, 7},
		Config:   []byte{1, 2, 3},
	}
	buf, err := Encode(container.CodecQoZ, []int{4, 5}, 0.25, p)
	if err != nil {
		t.Fatal(err)
	}
	s, got, err := Decode(buf, container.CodecQoZ)
	if err != nil {
		t.Fatal(err)
	}
	if s.ErrorBound != 0.25 || len(s.Dims) != 2 {
		t.Fatalf("header %+v", s)
	}
	if len(got.Bins) != len(p.Bins) {
		t.Fatalf("bins %v", got.Bins)
	}
	for i := range p.Bins {
		if got.Bins[i] != p.Bins[i] {
			t.Fatalf("bin %d: %d != %d", i, got.Bins[i], p.Bins[i])
		}
	}
	for i := range p.Anchors {
		if got.Anchors[i] != p.Anchors[i] {
			t.Fatalf("anchor %d mismatch", i)
		}
	}
	if got.Literals[0] != 1.5 || !math.IsInf(float64(got.Literals[1]), -1) {
		t.Fatalf("literals %v", got.Literals)
	}
	if string(got.Config) != string(p.Config) {
		t.Fatalf("config %v", got.Config)
	}
}

func TestXorDeltaRoundTrip(t *testing.T) {
	vals := []float32{0, 1.5, 1.5000001, -2, float32(math.NaN()), 1e30, -1e-30}
	got := unXorDelta(xorDelta(vals))
	for i := range vals {
		a, b := math.Float32bits(vals[i]), math.Float32bits(got[i])
		if a != b {
			t.Fatalf("index %d: bits %08x != %08x", i, a, b)
		}
	}
	if out := xorDelta(nil); len(out) != 0 {
		t.Fatal("empty xorDelta should stay empty")
	}
}

func TestXorDeltaCompressesSmoothAnchors(t *testing.T) {
	// Smooth anchor sequences must DEFLATE much better after the delta
	// transform — the reason it exists: at high compression ratios the
	// anchors are a large share of the stream.
	n := 4096
	smooth := make([]float32, n)
	for i := range smooth {
		smooth[i] = 100 + float32(i)*0.001
	}
	withDelta, err := Encode(container.CodecQoZ, []int{1}, 1, &Payload{Anchors: smooth})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same values stored without the transform (as raw
	// literals, which Encode does not delta-code).
	without, err := Encode(container.CodecQoZ, []int{1}, 1, &Payload{Literals: smooth})
	if err != nil {
		t.Fatal(err)
	}
	if len(withDelta) >= len(without) {
		t.Fatalf("delta-coded anchors %dB not smaller than raw %dB", len(withDelta), len(without))
	}
}

func TestCodecMismatch(t *testing.T) {
	buf, err := Encode(container.CodecSZ3, []int{4}, 0.1, &Payload{Bins: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(buf, container.CodecQoZ); err != container.ErrCodecMismatch {
		t.Fatalf("got %v, want codec mismatch", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	buf, err := Encode(container.CodecMGARD, []int{1}, 1, &Payload{})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := Decode(buf, container.CodecMGARD)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bins) != 0 || len(p.Literals) != 0 || len(p.Anchors) != 0 {
		t.Fatalf("payload %+v", p)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, _, err := Decode([]byte("nope"), container.CodecQoZ); err == nil {
		t.Fatal("garbage accepted")
	}
}
