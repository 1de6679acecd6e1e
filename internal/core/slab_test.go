package core

import (
	"math"
	"math/rand"
	"testing"

	"qoz/internal/container"
	"qoz/internal/interp"
	"qoz/internal/pool"
	"qoz/internal/szstream"
)

// TestSectionSlabOutlivesSweep decodes, with slab poisoning on, a stream
// whose every level escapes samples as literals. The payload's config and
// literals view the container's section slab (container.Float32sView), so
// a decode that released the slab before the payload was read, or before
// the sweep that consumes the literals was done, would fail or serve
// poison; every decode, whole or clipped, must match the one made with
// poisoning off.
func TestSectionSlabOutlivesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dims := []int{24, 20, 16}
	data := make([]float32, 24*20*16)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 1e6)
	}
	buf, err := Compress(data, dims, Options{ErrorBound: 1, Mode: ModeFixed, Alpha: 1, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := container.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := szstream.DecodeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range payload.Segments {
		if len(seg.Bins) > 0 && len(seg.Literals) == 0 {
			t.Fatalf("level %d has no literals: the sweep would not read the section slab", seg.Level)
		}
	}
	box := []interp.Range{{Lo: 3, Hi: 17}, {Lo: 0, Hi: 9}, {Lo: 5, Hi: 16}}
	want, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBox, _, err := Decompress(buf, box...)
	if err != nil {
		t.Fatal(err)
	}

	pool.PoisonSlabs(true)
	defer pool.PoisonSlabs(false)
	for round := range 3 {
		got, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d: recon[%d] = %v, want %v", round, i, got[i], want[i])
			}
		}
		pool.PutSlab(got)
		got, _, err = Decompress(buf, box...)
		if err != nil {
			t.Fatalf("round %d, clipped: %v", round, err)
		}
		for z := box[0].Lo; z < box[0].Hi; z++ {
			for y := box[1].Lo; y < box[1].Hi; y++ {
				for x := box[2].Lo; x < box[2].Hi; x++ {
					if i := (z*dims[1]+y)*dims[2] + x; math.Float32bits(got[i]) != math.Float32bits(wantBox[i]) {
						t.Fatalf("round %d, clipped: recon[%d] = %v, want %v", round, i, got[i], wantBox[i])
					}
				}
			}
		}
		pool.PutSlab(got)
	}
}
