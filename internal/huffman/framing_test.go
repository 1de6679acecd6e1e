package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// framingStreams are runs of zero, one, two and many distinct symbols,
// peaked and uniform, plus one alphabet wider than maxFlatWindow.
func framingStreams() map[string][]uint32 {
	rng := rand.New(rand.NewSource(40))
	peaked := make([]uint32, 30000)
	for i := range peaked {
		peaked[i] = uint32(32768 + int(rng.NormFloat64()*3))
	}
	uniform := make([]uint32, 5000)
	for i := range uniform {
		uniform[i] = rng.Uint32() % 1000
	}
	return map[string][]uint32{
		"k=0":     {},
		"k=1":     {9, 9, 9, 9},
		"k=2":     {0, 1, 1, 0, 1, 1, 1},
		"peaked":  peaked,
		"uniform": uniform,
		"wide":    wideStream(),
	}
}

// TestEncodeIsCountTableSegment pins the single-segment stream as the
// one-segment case of the shared-table layout: the symbol count, the
// table header, then the bitstream the segment carries after its own
// count.
func TestEncodeIsCountTableSegment(t *testing.T) {
	for name, in := range framingStreams() {
		tab := BuildTable(in)
		seg := tab.EncodeSegment(in)
		_, m := binary.Uvarint(seg)
		want := tab.AppendHeader(binary.AppendUvarint(nil, uint64(len(in))))
		want = append(want, seg[m:]...)
		if got := Encode(in); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode gives %d bytes, count+header+bitstream %d (first difference at %d)", name, len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestHandBuiltStreamsDecode decodes streams written byte by byte from
// the bins-section framing of docs/FORMAT.md §3, and requires Encode to
// write the same bytes.
func TestHandBuiltStreamsDecode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
		syms   []uint32
	}{
		{"empty", []byte{0x00, 0x00}, []uint32{}},
		// count 4, k = 1, symbol 300 (uvarint ac 02), no bitstream.
		{"constant", []byte{0x04, 0x01, 0xac, 0x02}, []uint32{300, 300, 300, 300}},
		// 9 occurs three times, 5 and 7 once: lengths 1, 2, 2. Canonical
		// (length, symbol) order is 9, 5, 7, so the codes are 0, 10, 11.
		// Entries: 9 absolute; 5 as zig-zag(5-9) = 7; 7 as zig-zag(7-5) =
		// 4. Bits of 9 9 9 5 7: 0 0 0 10 11, padded: 0001 0110.
		{"three", []byte{0x05, 0x03, 0x09, 0x01, 0x07, 0x02, 0x04, 0x02, 0x16}, []uint32{9, 9, 9, 5, 7}},
	} {
		got, err := Decode(tc.stream)
		if err != nil || !equalU32(got, tc.syms) {
			t.Errorf("%s: Decode = %v, %v; want %v", tc.name, got, err, tc.syms)
		}
		if enc := Encode(tc.syms); !bytes.Equal(enc, tc.stream) {
			t.Errorf("%s: Encode = % x, want % x", tc.name, enc, tc.stream)
		}
	}
}

// TestStrayBytesRejected: a stream or segment is exactly its count, table
// and bitstream, so bytes after the bitstream make it corrupt, in every
// table shape and on both decode paths.
func TestStrayBytesRejected(t *testing.T) {
	for name, in := range framingStreams() {
		stream := append(Encode(in), 0xab, 0xcd)
		if _, err := Decode(stream); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Decode of a stream with two stray bytes: %v", name, err)
		}
		if _, err := decodeReference(stream); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: reference decode of a stream with two stray bytes: %v", name, err)
		}
		tab := BuildTable(in)
		seg := append(tab.EncodeSegment(in), 0xab)
		if _, err := tab.DecodeSegment(seg); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: DecodeSegment of a segment with a stray byte: %v", name, err)
		}
		if _, err := tab.decodeSegmentReference(seg); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: reference decode of a segment with a stray byte: %v", name, err)
		}
	}
}
