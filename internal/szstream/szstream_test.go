package szstream

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoz/internal/container"
	"qoz/internal/interp"
)

func TestRoundTrip(t *testing.T) {
	p := &Payload{
		Anchors: []float32{0, -3.25, 7},
		Config:  []byte{1, 2, 3},
		Segments: []interp.Segment{{
			Bins:     []uint32{5, 5, 5, 9, 0, 32768, 70000},
			Literals: []float32{1.5, float32(math.Inf(-1))},
		}},
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
	if len(got.Segments) != 1 || got.Segments[0].Level != 0 {
		t.Fatalf("segments %+v, want one run of level 0", got.Segments)
	}
	run := got.Segments[0]
	if !slices.Equal(run.Bins, p.Segments[0].Bins) {
		t.Fatalf("bins %v, want %v", run.Bins, p.Segments[0].Bins)
	}
	for i := range p.Anchors {
		if got.Anchors[i] != p.Anchors[i] {
			t.Fatalf("anchor %d mismatch", i)
		}
	}
	if len(run.Literals) != 2 || run.Literals[0] != 1.5 || !math.IsInf(float64(run.Literals[1]), -1) {
		t.Fatalf("literals %v", run.Literals)
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
	withDelta, err := Encode(container.CodecQoZ, []int{1}, 1, &Payload{Anchors: smooth, Segments: []interp.Segment{{}}})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same values stored without the transform (as raw
	// literals, which Encode does not delta-code).
	without, err := Encode(container.CodecQoZ, []int{1}, 1, &Payload{Segments: []interp.Segment{{Literals: smooth}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(withDelta) >= len(without) {
		t.Fatalf("delta-coded anchors %dB not smaller than raw %dB", len(withDelta), len(without))
	}
}

func TestCodecMismatch(t *testing.T) {
	buf, err := Encode(container.CodecSZ3, []int{4}, 0.1, &Payload{Segments: []interp.Segment{{Bins: []uint32{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(buf, container.CodecQoZ); err != container.ErrCodecMismatch {
		t.Fatalf("got %v, want codec mismatch", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	buf, err := Encode(container.CodecMGARD, []int{1}, 1, &Payload{Segments: []interp.Segment{{}}})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := Decode(buf, container.CodecMGARD)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 1 || len(p.Segments[0].Bins) != 0 || len(p.Segments[0].Literals) != 0 || len(p.Anchors) != 0 {
		t.Fatalf("payload %+v", p)
	}
}

// TestEncodeNeedsOneRun: the single-segment layout holds one run, so a
// payload without one, or with level segments, is refused rather than
// written with some of its symbols left out.
func TestEncodeNeedsOneRun(t *testing.T) {
	for name, segs := range map[string][]interp.Segment{
		"none":  nil,
		"level": {{Level: 1, Bins: []uint32{1}}},
		"two":   {{}, {}},
	} {
		if _, err := Encode(container.CodecSZ3, []int{1}, 1, &Payload{Segments: segs}); err == nil {
			t.Errorf("%s: Encode accepted %d segments", name, len(segs))
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, _, err := Decode([]byte("nope"), container.CodecQoZ); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestEncodeLevelsIgnoresWorkerBudget encodes a synthetic payload whose
// largest segment's Huffman bytes span several DEFLATE chunks: the
// stream must be the same at every budget and decode to the payload.
func TestEncodeLevelsIgnoresWorkerBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	bins := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = 32768 + uint32(rng.ExpFloat64()*6) - 3
		}
		return out
	}
	p := &Payload{
		Anchors: []float32{1, 2.5, -3},
		Config:  []byte{7, 8, 9},
		Segments: []interp.Segment{
			{Level: 3, Bins: bins(100)},
			{Level: 2, Bins: bins(60_000), Literals: []float32{4, 5}},
			{Level: 1, Bins: bins(500_000), Literals: []float32{6}},
		},
	}
	want, err := EncodeLevels(container.CodecQoZ, []int{560_100}, 0.5, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := container.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range s.Sections {
		if sec.ID == SecLevelBinsBase+1 && len(sec.Data) < 3*container.ChunkBytes {
			t.Fatalf("level 1 holds %d bytes, under three chunks", len(sec.Data))
		}
	}
	got, err := DecodeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range p.Segments {
		g := got.Segments[i]
		if g.Level != seg.Level || !slices.Equal(g.Bins, seg.Bins) || !slices.Equal(g.Literals, seg.Literals) {
			t.Fatalf("segment %d (level %d) decodes differently", i, seg.Level)
		}
	}
	for _, workers := range []int{0, 2, 3, 8} {
		b, err := EncodeLevels(container.CodecQoZ, []int{560_100}, 0.5, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%d workers: %d bytes differ from one worker's %d", workers, len(b), len(want))
		}
	}
}

// TestTableSectionStrayBytesRejected: the table section of a
// level-segmented stream is exactly the table header, as a segment is
// exactly its count and bitstream.
func TestTableSectionStrayBytesRejected(t *testing.T) {
	p := &Payload{Segments: []interp.Segment{{Level: 2, Bins: []uint32{1}}, {Level: 1, Bins: []uint32{1, 2, 2, 3}}}}
	buf, err := EncodeLevels(container.CodecQoZ, []int{5}, 1, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := container.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStream(s); err != nil {
		t.Fatalf("the untouched stream: %v", err)
	}
	for i, sec := range s.Sections {
		if sec.ID == SecHuffTable {
			s.Sections[i].Data = append(append([]byte(nil), sec.Data...), 0)
		}
	}
	if _, err := DecodeStream(s); err == nil {
		t.Error("DecodeStream accepted a table section with a stray byte")
	}
}
