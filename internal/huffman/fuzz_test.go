package huffman

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFastVsReference pins the table decoder and its word-at-a-time
// bit reader to the bit-by-bit reference on arbitrary inputs: identical
// symbols when both succeed, and an error on both sides otherwise. The
// input is exercised both as a legacy single-segment stream (Decode) and
// as a shared-table header followed by one segment (ParseTable +
// DecodeSegment), covering both framings the codec emits.
func FuzzDecodeFastVsReference(f *testing.F) {
	seed := func(in []uint32) {
		f.Add(Encode(in))
		if len(in) > 0 {
			tab := BuildTable(in)
			f.Add(append(tab.AppendHeader(nil), tab.EncodeSegment(in)...))
		}
	}
	seed(nil)
	seed([]uint32{5})
	seed([]uint32{0, 1, 0, 1, 1})
	seed([]uint32{7, 8, 9, 7, 8, 9, 7, 7, 7, 7, 100000})
	var deep []uint32
	n := 1
	for s := 0; s < 30; s++ {
		for i := 0; i < n; i++ {
			deep = append(deep, uint32(s))
		}
		n = n * 3 / 2
	}
	seed(deep)
	// Symbol counts around the multi-symbol loop's edge, against a table
	// peaked enough that its entries hold entrySyms symbols.
	edge := []uint32{3, 3, 3, 4, 3, 3, 5, 3, 3}
	edgeTab := BuildTable(edge)
	for n := 1; n <= 2*entrySyms+1; n++ {
		seed(edge[:n])
		f.Add(append(edgeTab.AppendHeader(nil), edgeTab.EncodeSegment(edge[:n])...))
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the claimed symbol count: the k<=1 framings carry no
		// bitstream, so absurd counts would make both decoders allocate
		// gigabytes before agreeing. The library rejects uncoverable
		// counts for k>=2; trivial framings are the caller's trust domain.
		if n, m := binary.Uvarint(data); m > 0 && n > 1<<20 {
			return
		}

		fast, fastErr := Decode(data)
		ref, refErr := decodeReference(data)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("Decode error mismatch: fast=%v ref=%v", fastErr, refErr)
		}
		if fastErr == nil && !equalU32(fast, ref) {
			t.Fatalf("Decode output mismatch: fast=%v ref=%v", fast, ref)
		}

		// Segment framing: table header, then one segment.
		t1, rest1, err1 := ParseTable(data)
		t2, rest2, err2 := ParseTable(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ParseTable determinism: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !bytes.Equal(rest1, rest2) {
			t.Fatal("ParseTable rest mismatch")
		}
		if n, m := binary.Uvarint(rest1); m > 0 && n > 1<<20 {
			return
		}
		segFast, fastErr := t1.DecodeSegment(rest1)
		segRef, refErr := t2.decodeSegmentReference(rest2)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("DecodeSegment error mismatch: fast=%v ref=%v", fastErr, refErr)
		}
		if fastErr == nil && !equalU32(segFast, segRef) {
			t.Fatalf("DecodeSegment output mismatch: fast=%v ref=%v", segFast, segRef)
		}
	})
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
