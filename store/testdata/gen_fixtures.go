//go:build ignore

// gen_fixtures regenerates the golden store fixtures in this directory.
// Run it from the repository root:
//
//	go run ./store/testdata/gen_fixtures.go
//
// The fixtures pin on-disk compatibility, so regenerate them ONLY when
// introducing a new format version — never to "fix" a failing golden
// test, which is the test doing its job. v1_f32.qozb, v2_f64.qozb,
// v4_f32.qozb, and v3_gen4.qozb predate the current writer and must
// never be rewritten: the write-once Writer now emits v5 (v4 plus the
// per-brick statistics block), and the mutable writer now appends the
// statistics extension to every manifest, so "regenerating" any of them
// would silently change the very bytes the golden tests exist to pin.
// v3_gen4.qozb in particular doubles as the stats-less backward-compat
// golden: a pre-extension manifest must keep opening with nil
// statistics. This tool therefore only writes the v5 fixtures.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"qoz"
	"qoz/store"
)

func main() {
	ctx := context.Background()

	// v5 float32 store: 12^3 points, brick 8^3, bound 1e-3 — the current
	// write-once layout: v4's per-brick level tables plus the trailing
	// per-brick statistics block.
	d32 := make([]float32, 12*12*12)
	for i := range d32 {
		d32[i] = float32(math.Sin(float64(i)/11) + math.Cos(float64(i)/7)*0.25)
	}
	f, err := os.Create("store/testdata/v5_f32.qozb")
	check(err)
	check(store.Write(ctx, f, d32, []int{12, 12, 12}, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3},
		Brick: []int{8, 8, 8},
	}))
	check(f.Close())
	s, err := store.OpenFile("store/testdata/v5_f32.qozb", store.Options{})
	check(err)
	recon, err := s.ReadField(ctx)
	check(err)
	s.Close()
	raw := make([]byte, 4*len(recon))
	for i, v := range recon {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	check(os.WriteFile("store/testdata/v5_f32.expected.f32", raw, 0o644))

	// v5 float64 store, seeded with NaN and ±Inf so the fixture pins the
	// statistics flag bits and the rule that min/max/mean summarize only
	// the finite samples (the float64 escape envelope restores the
	// non-finite points exactly).
	d64 := make([]float64, 12*12*12)
	for i := range d64 {
		d64[i] = math.Sin(float64(i)/13)*2 + math.Cos(float64(i)/5)*0.5
	}
	d64[100] = math.NaN()
	d64[200] = math.Inf(1)
	d64[1500] = math.Inf(-1)
	f, err = os.Create("store/testdata/v5_f64.qozb")
	check(err)
	check(store.WriteT(ctx, f, d64, []int{12, 12, 12}, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3},
		Brick: []int{8, 8, 8},
	}))
	check(f.Close())
	s, err = store.OpenFile("store/testdata/v5_f64.qozb", store.Options{})
	check(err)
	recon64, err := store.ReadFieldT[float64](ctx, s)
	check(err)
	s.Close()
	raw = make([]byte, 8*len(recon64))
	for i, v := range recon64 {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	check(os.WriteFile("store/testdata/v5_f64.expected.f64", raw, 0o644))
	fmt.Println("fixtures regenerated")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
