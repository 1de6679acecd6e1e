package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qoz/datagen"
	"qoz/internal/container"
	"qoz/internal/interp"
	"qoz/internal/szstream"
	"qoz/metrics"
)

// diffCases returns data/option pairs covering both traversal modes
// (anchored and global), fixed level bounds, and 1D/2D/3D shapes.
func diffCases(t *testing.T) []struct {
	name string
	data []float32
	dims []int
	opts Options
} {
	t.Helper()
	cesm := datagen.CESMATM(96, 160)
	nyx := datagen.NYX(24, 24, 24)
	line := append([]float32(nil), nyx.Data[:997]...)
	eb2 := 1e-3 * metrics.ValueRange(cesm.Data)
	eb3 := 1e-3 * metrics.ValueRange(nyx.Data)
	return []struct {
		name string
		data []float32
		dims []int
		opts Options
	}{
		{"cesm-2d", cesm.Data, cesm.Dims, Options{ErrorBound: eb2}},
		{"cesm-2d-noanchor", cesm.Data, cesm.Dims, Options{ErrorBound: eb2, DisableAnchors: true}},
		{"nyx-3d", nyx.Data, nyx.Dims, Options{ErrorBound: eb3}},
		{"nyx-3d-fixed", nyx.Data, nyx.Dims, Options{ErrorBound: eb3, Mode: ModeFixed, Alpha: 1.5, Beta: 3}},
		{"nyx-3d-noanchor", nyx.Data, nyx.Dims, Options{ErrorBound: eb3, DisableAnchors: true}},
		{"line-1d", line, []int{len(line)}, Options{ErrorBound: eb3, DisableAnchors: true}},
	}
}

func sameBits(t *testing.T, label string, fast, ref []float32) {
	t.Helper()
	if len(fast) != len(ref) {
		t.Fatalf("%s: length %d vs %d", label, len(fast), len(ref))
	}
	for i := range fast {
		if math.Float32bits(fast[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("%s: recon[%d] = %x, want %x", label, i,
				math.Float32bits(fast[i]), math.Float32bits(ref[i]))
		}
	}
}

// TestDecompressMatchesReference pins the fused decode pipeline (fast
// Huffman + flattened sweeps) bit-identical to the closure-based scalar
// oracle on full decodes and on every progressive level of the
// level-segmented layout.
func TestDecompressMatchesReference(t *testing.T) {
	for _, tc := range diffCases(t) {
		enc, err := Compress(tc.data, tc.dims, tc.opts)
		if err != nil {
			t.Fatalf("%s: Compress: %v", tc.name, err)
		}
		fast, fdims, err := Decompress(enc)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", tc.name, err)
		}
		ref, rdims, err := DecompressReference(enc)
		if err != nil {
			t.Fatalf("%s: DecompressReference: %v", tc.name, err)
		}
		if len(fdims) != len(rdims) {
			t.Fatalf("%s: dims mismatch", tc.name)
		}
		sameBits(t, tc.name, fast, ref)

		// Every progressive level must agree too, including the seed stage.
		s, err := container.Decode(enc)
		if err != nil {
			t.Fatalf("%s: container.Decode: %v", tc.name, err)
		}
		maxLevel := streamMaxLevel(t, s)
		for level := 1; level <= maxLevel+1; level++ {
			fastL, _, fstride, ferr := decompressStream(s, level, interp.LevelPassDecode)
			refL, _, rstride, rerr := decompressStream(s, level, closureSweep)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("%s level %d: error mismatch %v vs %v", tc.name, level, ferr, rerr)
			}
			if ferr != nil {
				t.Fatalf("%s level %d: %v", tc.name, level, ferr)
			}
			if fstride != rstride {
				t.Fatalf("%s level %d: stride %d vs %d", tc.name, level, fstride, rstride)
			}
			sameBits(t, tc.name, fastL, refL)
		}
	}
}

// streamMaxLevel recovers the stream's top interpolation level from its
// config section.
func streamMaxLevel(t *testing.T, s *container.Stream) int {
	t.Helper()
	payload, err := szstream.DecodeLevelsStream(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeConfig(payload.Config, s.Dims, s.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	return p.Top()
}

// legacyEncode re-frames a level-segmented stream's payload in the legacy
// single-segment layout, concatenating the per-level streams in emission
// order (seed stage, then levels max..1) exactly as the old encoder did.
func legacyEncode(t *testing.T, enc []byte) []byte {
	t.Helper()
	s, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := szstream.DecodeLevelsStream(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeConfig(payload.Config, s.Dims, s.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	maxLevel := p.Top()
	var bins []uint32
	var lits []float32
	for l := maxLevel + 1; l >= 1; l-- {
		seg := payload.Segment(l)
		if seg == nil {
			if l == maxLevel+1 {
				t.Fatal("missing seed segment")
			}
			continue
		}
		bins = append(bins, seg.Bins...)
		lits = append(lits, seg.Literals...)
	}
	// Re-order: seed first, then descending levels — Segment lookup above
	// already walks maxLevel+1 down to 1, matching emission order.
	out, err := szstream.Encode(codecID, s.Dims, s.ErrorBound, &szstream.Payload{
		Bins:     bins,
		Literals: lits,
		Anchors:  payload.Anchors,
		Config:   payload.Config,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyDecompressMatchesReference re-frames each case in the legacy
// single-segment layout and pins the fused legacy decoder against the
// closure oracle.
func TestLegacyDecompressMatchesReference(t *testing.T) {
	for _, tc := range diffCases(t) {
		enc, err := Compress(tc.data, tc.dims, tc.opts)
		if err != nil {
			t.Fatalf("%s: Compress: %v", tc.name, err)
		}
		legacy := legacyEncode(t, enc)
		fast, _, err := Decompress(legacy)
		if err != nil {
			t.Fatalf("%s: legacy Decompress: %v", tc.name, err)
		}
		ref, _, err := DecompressReference(legacy)
		if err != nil {
			t.Fatalf("%s: legacy DecompressReference: %v", tc.name, err)
		}
		sameBits(t, tc.name+"-legacy", fast, ref)

		// The legacy re-framing must also reconstruct the same field as the
		// level-segmented stream it came from.
		streamFast, _, err := Decompress(enc)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", tc.name, err)
		}
		sameBits(t, tc.name+"-legacy-vs-stream", fast, streamFast)
	}
}

// TestLiteralMismatchRejected damages the one thing the container cannot
// vouch for: it has no checksum, so a level whose escape symbols and
// literals disagree in number still parses. Decoding it used to succeed —
// a missing literal read as 0, a surplus one was ignored — and return
// wrong samples. Both layouts must now refuse it, through either sweep
// with the same error, while a progressive read that stops above the
// damaged level still succeeds: a level is checked when it is swept.
func TestLiteralMismatchRejected(t *testing.T) {
	nyx := datagen.NYX(24, 24, 24)
	data := append([]float32(nil), nyx.Data...)
	for i := 5; i < len(data); i += 97 {
		data[i] = 1e30 // far outside the quantizer's radius: escapes on every level
	}
	eb := 1e-3 * metrics.ValueRange(nyx.Data)
	for _, noAnchors := range []bool{false, true} {
		enc, err := Compress(data, nyx.Dims, Options{ErrorBound: eb, DisableAnchors: noAnchors})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			level int
			delta int
		}{{"dropped", 1, -1}, {"added", 2, +1}} {
			s, err := container.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := szstream.DecodeLevelsStream(s)
			if err != nil {
				t.Fatal(err)
			}
			seg := payload.Segment(tc.level)
			if seg == nil || len(seg.Literals) == 0 {
				t.Fatalf("level %d holds no literals; the case lost its footing", tc.level)
			}
			if tc.delta < 0 {
				seg.Literals = seg.Literals[:len(seg.Literals)-1]
			} else {
				seg.Literals = append(seg.Literals, 1)
			}
			bad, err := szstream.EncodeLevels(codecID, s.Dims, s.ErrorBound, payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			for layout, stream := range map[string][]byte{"levels": bad, "legacy": legacyEncode(t, bad)} {
				label := fmt.Sprintf("noAnchors=%v %s literal, %s layout", noAnchors, tc.name, layout)
				_, _, err := Decompress(stream)
				_, _, errRef := DecompressReference(stream)
				if err == nil || errRef == nil {
					t.Fatalf("%s: decoded with errors %v / %v, want both non-nil", label, err, errRef)
				}
				if err.Error() != errRef.Error() || !strings.Contains(err.Error(), "literal") {
					t.Fatalf("%s: Decompress says %q, DecompressReference %q", label, err, errRef)
				}
			}
			if _, _, _, err := DecompressLevel(bad, tc.level+1); err != nil {
				t.Fatalf("noAnchors=%v %s literal: read above the damaged level %d: %v", noAnchors, tc.name, tc.level, err)
			}
		}
	}
}

// TestLevelSegmentStrayBytesRejected appends one byte to a level's bin
// segment and re-encodes the container: the segment then holds bytes past
// its bitstream, which no encoder writes, and both the level decoder and a
// whole decompress must refuse it rather than ignore them.
func TestLevelSegmentStrayBytesRejected(t *testing.T) {
	nyx := datagen.NYX(24, 24, 24)
	enc, err := Compress(nyx.Data, nyx.Dims, Options{ErrorBound: 1e-3 * metrics.ValueRange(nyx.Data)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := szstream.DecodeLevelsStream(s); err != nil {
		t.Fatalf("the untouched stream: %v", err)
	}
	for i, sec := range s.Sections {
		if level, lits, ok := szstream.SectionLevel(sec.ID); !ok || lits || level != 1 {
			continue
		}
		s.Sections[i].Data = append(append([]byte(nil), sec.Data...), 0)
	}
	bad, err := container.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := container.Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := szstream.DecodeLevelsStream(sb); err == nil {
		t.Error("DecodeLevelsStream accepted a level segment with a stray byte")
	}
	if _, _, err := Decompress(bad); err == nil {
		t.Error("Decompress accepted a level segment with a stray byte")
	}
}
