package qoz

import (
	"context"
	"math"
	"testing"
)

// sampleStride gathers the stride-aligned points of a full row-major
// field, the reference a progressive decode must match bit-for-bit.
func sampleStride[T float32 | float64](full []T, dims []int, stride int) []T {
	cd := CoarseDims(dims, stride)
	nd := len(dims)
	fs := make([]int, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		fs[i] = s
		s *= dims[i]
	}
	n := 1
	for _, d := range cd {
		n *= d
	}
	out := make([]T, n)
	coord := make([]int, nd)
	for i := 0; i < n; i++ {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += coord[d] * stride * fs[d]
		}
		out[i] = full[idx]
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < cd[d] {
				break
			}
			coord[d] = 0
			d--
		}
	}
	return out
}

func synthField(dims []int) []float32 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)/37) + math.Cos(float64(i)/11)*0.5)
	}
	return out
}

// TestDecodeLevelMatchesFullDecode pins the progressive contract: for
// every level, decoding the level-offset prefix of a stream yields
// exactly the stride-aligned points of a full decode — both from the
// whole buffer and from the byte-exact prefix alone.
func TestDecodeLevelMatchesFullDecode(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		opts Options
	}{
		{"3d", []int{33, 29, 17}, Options{ErrorBound: 1e-3}},
		{"2d", []int{70, 65}, Options{ErrorBound: 1e-4}},
		{"1d", []int{257}, Options{ErrorBound: 1e-3}},
		{"no-anchors", []int{33, 29, 17}, Options{ErrorBound: 1e-3, DisableAnchors: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := synthField(tc.dims)
			buf, err := MustLookup(DefaultCodec).Compress(context.Background(), data, tc.dims, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			full, _, err := MustLookup(DefaultCodec).Decompress(context.Background(), buf)
			if err != nil {
				t.Fatal(err)
			}
			offs, err := LevelOffsets(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(offs) == 0 {
				t.Fatal("no level offsets on a fresh stream")
			}
			if got := offs[len(offs)-1]; got.Level != 1 || got.Bytes != len(buf) {
				t.Fatalf("level-1 offset = %+v, want {1 %d}", got, len(buf))
			}
			for _, off := range offs {
				if off.Bytes > len(buf) || off.Bytes <= 0 {
					t.Fatalf("offset %+v out of range", off)
				}
				for _, src := range [][]byte{buf, buf[:off.Bytes]} {
					coarse, dims, stride, err := DecodePayloadLevel[float32](src, off.Level)
					if err != nil {
						t.Fatalf("level %d (prefix=%v): %v", off.Level, len(src) != len(buf), err)
					}
					if stride != 1<<(off.Level-1) {
						t.Fatalf("level %d: stride %d", off.Level, stride)
					}
					want := sampleStride(full, dims, stride)
					if len(coarse) != len(want) {
						t.Fatalf("level %d: %d coarse points, want %d", off.Level, len(coarse), len(want))
					}
					for i := range want {
						if math.Float32bits(coarse[i]) != math.Float32bits(want[i]) {
							t.Fatalf("level %d: point %d = %v, want %v", off.Level, i, coarse[i], want[i])
						}
					}
				}
			}
			// Prefix shorter than the requested level must fail loudly, not
			// return a grid that was never refined.
			if len(offs) >= 2 {
				if _, _, _, err := DecodePayloadLevel[float32](buf[:offs[0].Bytes], 1); err == nil {
					t.Fatal("decoding level 1 from a seed-stage prefix succeeded")
				}
			}
			// A coarser request than the stream's own top level clamps.
			_, _, stride, err := DecodePayloadLevel[float32](buf, offs[0].Level+5)
			if err != nil {
				t.Fatal(err)
			}
			if stride != 1<<(offs[0].Level-1) {
				t.Fatalf("over-coarse request: stride %d, want %d", stride, 1<<(offs[0].Level-1))
			}
		})
	}
}

// TestDecodeLevel64MatchesFullDecode pins the float64 envelope contract,
// including exact restoration of escapes that land on the coarse grid.
func TestDecodeLevel64MatchesFullDecode(t *testing.T) {
	dims := []int{33, 29, 17}
	n := 33 * 29 * 17
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/37) + 1e-13*float64(i%7)
	}
	// Escapes on and off the coarse grid: a NaN at the origin (always on
	// every coarse grid) and one at an odd index (level >= 2 drops it).
	data[0] = math.NaN()
	data[1] = math.Inf(1)
	buf, err := EncodePayload(context.Background(), nil, data, dims, Options{ErrorBound: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := DecodePayload[float64](context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	offs, err := LevelOffsets(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) == 0 {
		t.Fatal("no level offsets on an envelope stream")
	}
	if offs[len(offs)-1].Bytes != len(buf) {
		t.Fatalf("level-1 offset %d, want %d", offs[len(offs)-1].Bytes, len(buf))
	}
	for _, off := range offs {
		for _, src := range [][]byte{buf, buf[:off.Bytes]} {
			coarse, gotDims, stride, err := DecodePayloadLevel[float64](src, off.Level)
			if err != nil {
				t.Fatalf("level %d: %v", off.Level, err)
			}
			want := sampleStride(full, gotDims, stride)
			if len(coarse) != len(want) {
				t.Fatalf("level %d: %d points, want %d", off.Level, len(coarse), len(want))
			}
			for i := range want {
				if math.Float64bits(coarse[i]) != math.Float64bits(want[i]) {
					t.Fatalf("level %d: point %d = %v, want %v", off.Level, i, coarse[i], want[i])
				}
			}
		}
	}
}

// TestLevelOffsetsLegacyStream verifies pre-segmentation streams and
// other codecs report no offsets (and DecodePayloadLevel[float32] refuses them) rather
// than decoding garbage.
func TestLevelOffsetsOtherCodec(t *testing.T) {
	dims := []int{32, 32}
	data := synthField(dims)
	c, err := Lookup("sz3")
	if err != nil {
		t.Skip("sz3 not registered")
	}
	buf, err := c.Compress(t.Context(), data, dims, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	offs, err := LevelOffsets(buf)
	if err != nil {
		t.Fatal(err)
	}
	if offs != nil {
		t.Fatalf("sz3 stream reported level offsets: %v", offs)
	}
	if _, _, _, err := DecodePayloadLevel[float32](buf, 2); err == nil {
		t.Fatal("DecodePayloadLevel[float32] accepted an sz3 stream")
	}
}
