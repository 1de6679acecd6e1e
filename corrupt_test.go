package qoz_test

// Fuzz-style robustness tests: every decoder entry point must return an
// error — never panic, never allocate unboundedly — on mangled input, and
// must reject every strict truncation of a valid stream.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/container"
	"qoz/internal/szstream"
	"qoz/metrics"
)

// corpus builds one valid stream of every format the module produces.
func corpus(t *testing.T) map[string][]byte {
	t.Helper()
	ds := datagen.NYX(8, 8, 8)
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	ctx := context.Background()

	d64 := make([]float64, len(ds.Data))
	for i, v := range ds.Data {
		d64[i] = float64(v)
	}

	out := map[string][]byte{}
	var err error
	if out["legacy-f32"], err = qoz.MustLookup(qoz.DefaultCodec).Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: eb}); err != nil {
		t.Fatal(err)
	}
	if out["legacy-f64"], err = qoz.EncodePayload(ctx, nil, d64, ds.Dims, qoz.Options{ErrorBound: eb}); err != nil {
		t.Fatal(err)
	}
	mk := func(f64 bool) []byte {
		var b bytes.Buffer
		enc, err := qoz.NewEncoder(&b, qoz.StreamOptions{
			Opts:       qoz.Options{ErrorBound: eb},
			SlabPoints: 128, // 4 slabs
		})
		if err != nil {
			t.Fatal(err)
		}
		if f64 {
			err = qoz.EncodeT(ctx, enc, d64, ds.Dims)
		} else {
			err = enc.Encode(ctx, ds.Data, ds.Dims)
		}
		if err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	out["stream-f32"] = mk(false)
	out["stream-f64"] = mk(true)
	return out
}

// decodeAll exercises every decoder on buf, caring only that none panics.
func decodeAll(buf []byte) {
	ctx := context.Background()
	qoz.MustLookup(qoz.DefaultCodec).Decompress(ctx, buf)           //nolint:errcheck
	qoz.DecodePayload[float64](ctx, buf)                            //nolint:errcheck
	qoz.Decode[float32](ctx, buf)                                   //nolint:errcheck
	qoz.Decode[float64](ctx, buf)                                   //nolint:errcheck
	qoz.NewDecoder(bytes.NewReader(buf)).Decode(ctx)                //nolint:errcheck
	qoz.DecodeT[float64](ctx, qoz.NewDecoder(bytes.NewReader(buf))) //nolint:errcheck
	if h, err := qoz.NewDecoder(bytes.NewReader(buf)).Header(); err == nil {
		_ = h.Points()
	}
}

func mustNotPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", name, r)
		}
	}()
	fn()
}

// TestTruncatedStreamsReturnErrors cuts every stream at every byte offset
// and requires the matching decoder to report an error rather than panic
// or silently succeed.
func TestTruncatedStreamsReturnErrors(t *testing.T) {
	ctx := context.Background()
	for name, buf := range corpus(t) {
		decode := func(p []byte) error {
			var err error
			switch name {
			case "legacy-f64", "stream-f64":
				_, _, err = qoz.Decode[float64](ctx, p)
			default:
				_, _, err = qoz.Decode[float32](ctx, p)
			}
			return err
		}
		for cut := 0; cut < len(buf); cut++ {
			prefix := buf[:cut]
			mustNotPanic(t, name, func() {
				if err := decode(prefix); err == nil {
					t.Fatalf("%s: truncation at %d/%d accepted", name, cut, len(buf))
				}
			})
		}
	}
}

// TestBitFlipsNeverPanic flips random bits everywhere in every format and
// runs every decoder over the result; garbage output is acceptable,
// panics are not.
func TestBitFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, buf := range corpus(t) {
		for trial := 0; trial < 200; trial++ {
			dup := append([]byte(nil), buf...)
			flips := 1 + rng.Intn(4)
			for f := 0; f < flips; f++ {
				dup[rng.Intn(len(dup))] ^= byte(1 + rng.Intn(255))
			}
			mustNotPanic(t, name, func() { decodeAll(dup) })
		}
	}
}

// TestRandomGarbageNeverPanics feeds arbitrary bytes, with and without
// valid-looking magic prefixes, to every decoder.
func TestRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prefixes := [][]byte{nil, []byte("QOZS"), []byte("QZD1"), []byte("QOZG")}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		buf = append(prefixes[trial%len(prefixes)], buf...)
		mustNotPanic(t, "garbage", func() { decodeAll(buf) })
	}
}

// TestHugeEscapeCountRejected crafts a float64 envelope declaring an
// absurd escape count; the decoder must reject it before allocating
// proportionally to the claim.
func TestHugeEscapeCountRejected(t *testing.T) {
	buf := []byte("QZD1")
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1e-3))
	buf = binary.AppendUvarint(buf, 1<<60) // escapes that cannot exist
	buf = append(buf, 0xFF, 0xFF)          // a few stray bytes
	if _, _, err := qoz.DecodePayload[float64](context.Background(), buf); err == nil {
		t.Fatal("absurd escape count accepted")
	}
	if _, _, err := qoz.Decode[float64](context.Background(), buf); err == nil {
		t.Fatal("absurd escape count accepted by Decode")
	}
}

// TestMalformedEnvelopesFailAlike hand-builds every malformed float64
// envelope prefix around a valid inner container. The envelope has one
// parser, so the header peek, the full decode, the level decode and the
// level-boundary scan must all report the same error — and none may panic.
func TestMalformedEnvelopesFailAlike(t *testing.T) {
	ctx := context.Background()
	inner, err := qoz.MustLookup(qoz.DefaultCodec).Compress(ctx, make([]float32, 64), []int{4, 4, 4}, qoz.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// envelope assembles magic | eb | count | index deltas | values | inner,
	// each part exactly as given.
	envelope := func(magic string, count []byte, deltas []uint64, values int, tail []byte) []byte {
		buf := binary.LittleEndian.AppendUint64([]byte(magic), math.Float64bits(1e-3))
		buf = append(buf, count...)
		for _, d := range deltas {
			buf = binary.AppendUvarint(buf, d)
		}
		for i := 0; i < values; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(i)))
		}
		return append(buf, tail...)
	}
	n := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := []struct {
		name string
		buf  []byte
		want string // "" = any error, as long as all entry points agree
	}{
		{"bad magic", envelope("QZD2", n(1), []uint64{3}, 1, inner), ""},
		{"cut inside the bound", []byte("QZD1\x00\x01\x02"), "not a float64 stream"},
		{"truncated count varint", envelope("QZD1", []byte{0x80}, nil, 0, nil), "corrupt float64 envelope"},
		{"count exceeds payload/9", envelope("QZD1", n(1<<40), []uint64{1, 2}, 2, inner), "exceeds payload size"},
		{"truncated index varint", envelope("QZD1", n(1), nil, 0, bytes.Repeat([]byte{0x80}, 16)), "corrupt escape index"},
		{"zero delta after the first", envelope("QZD1", n(2), []uint64{5, 0}, 2, inner), "non-increasing escape index"},
		{"index overflow", envelope("QZD1", n(2), []uint64{math.MaxUint64, 1}, 2, inner), "escape index overflow"},
		{"truncated values", envelope("QZD1", n(2), []uint64{1 << 56, 1 << 56}, 1, nil), "truncated escape values"},
		{"index at points", envelope("QZD1", n(2), []uint64{3, 61}, 2, inner), "escape index 64 out of range"},
		{"inner container cut", envelope("QZD1", n(1), []uint64{3}, 1, inner[:3]), ""},
	}
	for _, tc := range cases {
		errs := map[string]error{}
		mustNotPanic(t, tc.name, func() {
			_, _, _, errs["peek"] = qoz.PeekPayload(tc.buf)
			_, _, errs["decode"] = qoz.DecodePayload[float64](ctx, tc.buf)
			_, _, errs["Decode"] = qoz.Decode[float64](ctx, tc.buf)
			_, _, _, errs["level"] = qoz.DecodePayloadLevel[float64](tc.buf, 1)
			if qoz.IsFloat64Stream(tc.buf) {
				_, errs["offsets"] = qoz.LevelOffsets(tc.buf)
			}
		})
		for op, err := range errs {
			switch {
			case err == nil:
				t.Errorf("%s: %s accepted it", tc.name, op)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: %s reports %q, want %q", tc.name, op, err, tc.want)
			case qoz.IsFloat64Stream(tc.buf) && err.Error() != errs["peek"].Error():
				t.Errorf("%s: %s reports %q but the peek %q", tc.name, op, err, errs["peek"])
			}
		}
	}

	// The well-formed neighbour of those cases decodes, escapes applied.
	ok := envelope("QZD1", n(2), []uint64{3, 60}, 2, inner)
	v, _, err := qoz.DecodePayload[float64](ctx, ok)
	if err != nil || v[3] != 0 || v[63] != 1 {
		t.Fatalf("valid envelope: %v (v[3]=%v v[63]=%v)", err, v[3], v[63])
	}
}

// levelDecode runs the progressive decoder matching the corpus entry's
// element type and discards the output.
func levelDecode(name string, p []byte, level int) error {
	if name == "legacy-f64" {
		_, _, _, err := qoz.DecodePayloadLevel[float64](p, level)
		return err
	}
	_, _, _, err := qoz.DecodePayloadLevel[float32](p, level)
	return err
}

// TestTruncatedLevelPrefixes pins the progressive fast path against
// truncation. A prefix ending exactly on a level boundary must decode that
// level bit-identical to the same request against the whole stream; a
// prefix one byte short of a boundary must be rejected at that level (the
// level's own segment is torn); and no cut anywhere in the stream may
// panic LevelOffsets or the level decoders, which now run the LUT Huffman
// and flattened interpolation path.
func TestTruncatedLevelPrefixes(t *testing.T) {
	for name, buf := range corpus(t) {
		if name != "legacy-f32" && name != "legacy-f64" {
			continue // slab streams carry no level map
		}
		offs, err := qoz.LevelOffsets(buf)
		if err != nil {
			t.Fatalf("%s: LevelOffsets: %v", name, err)
		}
		if len(offs) == 0 {
			t.Fatalf("%s: container stream reports no level boundaries", name)
		}
		for _, off := range offs {
			full32, _, _, err := qoz.DecodePayloadLevel[float32](buf, off.Level)
			if name == "legacy-f32" {
				if err != nil {
					t.Fatalf("%s: full decode at level %d: %v", name, off.Level, err)
				}
				pre32, _, _, err := qoz.DecodePayloadLevel[float32](buf[:off.Bytes], off.Level)
				if err != nil {
					t.Fatalf("%s: prefix decode at level %d: %v", name, off.Level, err)
				}
				if len(pre32) != len(full32) {
					t.Fatalf("%s: level %d prefix decoded %d points, full %d", name, off.Level, len(pre32), len(full32))
				}
				for i := range full32 {
					if math.Float32bits(pre32[i]) != math.Float32bits(full32[i]) {
						t.Fatalf("%s: level %d prefix diverges at %d", name, off.Level, i)
					}
				}
			} else {
				full64, _, _, err := qoz.DecodePayloadLevel[float64](buf, off.Level)
				if err != nil {
					t.Fatalf("%s: full decode at level %d: %v", name, off.Level, err)
				}
				pre64, _, _, err := qoz.DecodePayloadLevel[float64](buf[:off.Bytes], off.Level)
				if err != nil {
					t.Fatalf("%s: prefix decode at level %d: %v", name, off.Level, err)
				}
				for i := range full64 {
					if math.Float64bits(pre64[i]) != math.Float64bits(full64[i]) {
						t.Fatalf("%s: level %d prefix diverges at %d", name, off.Level, i)
					}
				}
			}
			if err := levelDecode(name, buf[:off.Bytes-1], off.Level); err == nil {
				t.Fatalf("%s: torn level-%d segment accepted", name, off.Level)
			}
		}
		seedLevel := offs[0].Level
		for cut := 0; cut <= len(buf); cut++ {
			prefix := buf[:cut]
			mustNotPanic(t, name, func() {
				qoz.LevelOffsets(prefix)             //nolint:errcheck
				levelDecode(name, prefix, 1)         //nolint:errcheck
				levelDecode(name, prefix, seedLevel) //nolint:errcheck
			})
		}
	}
}

// TestMangledLevelSegmentsNeverPanic corrupts each region of a
// level-segmented stream in turn — the header/table/seed prefix, then
// every per-level segment — and drives the result through the progressive
// and full decoders. Mutations in the table region produce over-long and
// non-canonical codes, exercising the flat-LUT fallback chains; mutations
// inside a level segment tear its count/bitstream framing. Garbage output
// is acceptable, panics are not.
func TestMangledLevelSegmentsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, buf := range corpus(t) {
		if name != "legacy-f32" && name != "legacy-f64" {
			continue
		}
		offs, err := qoz.LevelOffsets(buf)
		if err != nil || len(offs) == 0 {
			t.Fatalf("%s: LevelOffsets: %v", name, err)
		}
		type region struct {
			lo, hi, level int
		}
		regions := []region{{0, offs[0].Bytes, offs[0].Level}} // header + Huffman table + seed
		for i := 1; i < len(offs); i++ {
			regions = append(regions, region{offs[i-1].Bytes, offs[i].Bytes, offs[i].Level})
		}
		for _, reg := range regions {
			if reg.hi <= reg.lo {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				dup := append([]byte(nil), buf...)
				for f := 0; f < 1+rng.Intn(3); f++ {
					dup[reg.lo+rng.Intn(reg.hi-reg.lo)] ^= byte(1 + rng.Intn(255))
				}
				mustNotPanic(t, name, func() {
					levelDecode(name, dup, reg.level) //nolint:errcheck
					levelDecode(name, dup, 1)         //nolint:errcheck
					decodeAll(dup)
				})
			}
		}
	}
}

// TestStrayBytesAfterDeflateRejected re-frames a QoZ stream with two
// bytes after one section's DEFLATE stream, counted in its encLen: the
// decoder must reject the stream rather than stop at the final block.
func TestStrayBytesAfterDeflateRejected(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(32, 32, 32)
	b, err := qoz.MustLookup(qoz.DefaultCodec).Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := container.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]container.Packed, len(s.Sections))
	big := 0
	for i, sec := range s.Sections {
		packed[i] = container.Pack(sec)
		if len(sec.Data) > len(s.Sections[big].Data) {
			big = i
		}
	}
	if clean, err := container.EncodePacked(s, packed); err != nil {
		t.Fatal(err)
	} else if _, _, err := qoz.Decode[float32](ctx, clean); err != nil {
		t.Fatalf("re-framed stream: %v", err)
	}
	if len(packed[big].Enc)+2 >= len(packed[big].Raw) {
		t.Fatal("the largest section is stored raw")
	}
	packed[big].Enc = append(packed[big].Enc, 0xAB, 0xCD)
	bad, err := container.EncodePacked(s, packed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := qoz.Decode[float32](ctx, bad); err == nil {
		t.Fatal("bytes after a section's final DEFLATE block accepted")
	}
}

// TestLyingStreamHeaderRejected crafts slab-stream headers whose declared
// geometry is inconsistent or absurd.
func TestLyingStreamHeaderRejected(t *testing.T) {
	ctx := context.Background()
	mkHdr := func(dims []uint64, rows, nslabs uint64) []byte {
		b := []byte("QOZS")
		b = append(b, 1, 1, 0, byte(len(dims)))
		for _, d := range dims {
			b = binary.AppendUvarint(b, d)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1e-3))
		b = binary.AppendUvarint(b, rows)
		b = binary.AppendUvarint(b, nslabs)
		return b
	}
	cases := map[string][]byte{
		"zero dim":        mkHdr([]uint64{0, 4}, 1, 1),
		"huge dims":       mkHdr([]uint64{1 << 31, 1 << 31, 1 << 31}, 1, 1),
		"zero slab rows":  mkHdr([]uint64{8}, 0, 8),
		"slab mismatch":   mkHdr([]uint64{8}, 2, 7),
		"rows over dim":   mkHdr([]uint64{8}, 9, 1),
		"payload too big": append(binary.AppendUvarint(mkHdr([]uint64{8}, 8, 1), 1<<40), 0xAB),
		// Declares 2^34 points (just under the header cap) backed by an
		// empty payload; must fail in slab decode without ever allocating
		// the declared field.
		"giant field, empty payload": binary.AppendUvarint(
			mkHdr([]uint64{131072, 131072}, 131072, 1), 0),
	}
	for name, buf := range cases {
		mustNotPanic(t, name, func() {
			if _, _, err := qoz.NewDecoder(bytes.NewReader(buf)).Decode(ctx); err == nil {
				t.Fatalf("%s: accepted", name)
			}
		})
	}
}

// FuzzCodecDecode feeds arbitrary bytes to qoz.Decode: they decode or
// return an error, and never panic. The seeds are a level-segmented QoZ
// stream and its single-run re-framing, one stream of every baseline
// codec, and the QoZ stream with a Huffman table header claiming 2^62
// entries.
func FuzzCodecDecode(f *testing.F) {
	ds := datagen.NYX(8, 8, 8)
	opts := qoz.Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data)}
	ctx := context.Background()
	for _, name := range qoz.Codecs() {
		b, err := qoz.MustLookup(name).Compress(ctx, ds.Data, ds.Dims, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if name != qoz.DefaultCodec {
			continue
		}
		f.Add(singleRun(f, b))
		s, err := container.Decode(b)
		if err != nil {
			f.Fatal(err)
		}
		for i, sec := range s.Sections {
			if sec.ID == szstream.SecHuffTable {
				s.Sections[i].Data = append(binary.AppendUvarint(nil, 1<<62), 1, 2, 3, 4)
			}
		}
		huge, err := container.Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		qoz.Decode[float64](ctx, b) //nolint:errcheck
	})
}
