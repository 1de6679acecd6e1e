//go:build ignore

// gen_fixtures regenerates the one golden store fixture the current
// writer can still produce. Run it from the repository root:
//
//	go run ./store/testdata/gen_fixtures.go
//
// The fixtures pin on-disk compatibility, so regenerate ONLY when the
// format changes on purpose — never to "fix" a failing golden test, which
// is the test doing its job. Every other fixture in this directory can no
// longer be regenerated at all: v1_f32, v2_f64, v4_f32, v5_f32 and v5_f64
// are legacy index layouts that no code in the repository writes since
// PR 22 (v5 was last written at PR 21), and v3_gen4 is a journal from
// before the statistics and level-table extensions, kept as the proof
// that bare manifests still open. They are read-only history; losing one
// loses the only bytes that check its reader.
//
// What this tool writes is v3_levels.qozb: the 12³ float32 field of the
// v5_f32 fixture written once by store.Write (generation 1 — a one-
// generation journal whose payloads, level tables and statistics equal
// v5_f32.qozb's), then grown by four rows through OpenMutable (generation
// 2 — the partial last band is rewritten, every manifest carries both
// extension blocks), with the reconstruction of the latest generation
// beside it.
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

const path = "store/testdata/v3_levels.qozb"

func main() {
	ctx := context.Background()

	// 16 rows of 12×12; the first 12 are exactly the v5_f32 fixture's field.
	d32 := make([]float32, 16*12*12)
	for i := range d32 {
		d32[i] = float32(math.Sin(float64(i)/11) + math.Cos(float64(i)/7)*0.25)
	}
	f, err := os.Create(path)
	check(err)
	check(store.Write(ctx, f, d32[:12*12*12], []int{12, 12, 12}, store.WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3},
		Brick: []int{8, 8, 8},
	}))
	check(f.Close())
	m, err := store.OpenMutable(path, store.Options{})
	check(err)
	check(m.AppendSteps(ctx, d32[12*12*12:]))
	check(m.Close())

	s, err := store.OpenFile(path, store.Options{})
	check(err)
	recon, err := s.ReadField(ctx)
	check(err)
	s.Close()
	raw := make([]byte, 4*len(recon))
	for i, v := range recon {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	check(os.WriteFile("store/testdata/v3_levels.expected.f32", raw, 0o644))
	fmt.Println("v3_levels fixture regenerated")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
