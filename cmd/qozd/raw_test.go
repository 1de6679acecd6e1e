package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"qoz"
)

// FuzzRawSamples holds the raw region body to its wire definition on both
// byte orders: whatever the bit patterns, read as float32 and as float64
// samples, writeRaw's conversion path (what a big-endian host runs) and —
// on a little-endian host — the slab's own bytes, written in one Write,
// must both be binary.LittleEndian of each sample. NaN payloads (signalling
// ones included), −0, ±Inf and subnormals must come out bit for bit: a
// conversion through another width or a float register that quiets a NaN
// would change them. Each input is also checked tiled past the 64 KiB
// conversion chunk.
func FuzzRawSamples(f *testing.F) {
	f.Add(le32(0x7fc00001, 0x7f800001, 0xffc00000, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x3f800000), true)
	f.Add(le64(0x7ff0000000000001, 0x7ff8000000000001, 0xfff8000000000000, 0x8000000000000000,
		0x7ff0000000000000, 0xfff0000000000000, 0x0000000000000001, 0x800fffffffffffff), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, raw []byte, tile bool) {
		if tile && len(raw) > 0 {
			for len(raw) <= 64<<10 {
				raw = append(raw, raw...)
			}
		}
		f32 := make([]float32, len(raw)/4)
		want32 := make([]byte, 0, 4*len(f32))
		for i := range f32 {
			f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			want32 = binary.LittleEndian.AppendUint32(want32, math.Float32bits(f32[i]))
		}
		checkRaw(t, f32, want32)
		f64 := make([]float64, len(raw)/8)
		want64 := make([]byte, 0, 8*len(f64))
		for i := range f64 {
			f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			want64 = binary.LittleEndian.AppendUint64(want64, math.Float64bits(f64[i]))
		}
		checkRaw(t, f64, want64)
	})
}

func checkRaw[T qoz.Float](t *testing.T, data []T, want []byte) {
	t.Helper()
	paths := []bool{false}
	if hostLittleEndian {
		paths = append(paths, true)
	}
	for _, native := range paths {
		var w countingWriter
		if err := writeRaw(&w, data, native); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("native %v: %d samples wrote %d bytes that differ from their little-endian encoding (%d bytes)", native, len(data), w.Len(), len(want))
		}
		if native && len(data) > 0 && w.writes != 1 {
			t.Fatalf("the slab's own bytes went out in %d Writes, want one", w.writes)
		}
	}
}

type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func le32(vals ...uint32) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func le64(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}
