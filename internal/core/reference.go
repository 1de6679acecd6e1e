package core

// This file keeps the original scalar decode — interp.LevelPass driven by
// a per-point dequantizer closure — as the differential-test oracle for
// the fused hot path (interp.LevelPassDecodeClip). Only the sweep differs: the
// oracle runs through the same decompressStream and interp.Pyramid.Decode
// as production, and the tests in differential_test.go and the top-level
// float64 envelope tests pin both bit-identical on every layout and level.

import (
	"qoz/internal/interp"
	"qoz/internal/quant"
)

// closureSweep is the reference interp.DecodeSweep: one closure call per
// point, every point of the level reconstructed whatever the clip.
func closureSweep(buf []float32, dims []int, level int, m interp.Method, _ []interp.Range, deq *quant.Dequantizer) {
	interp.LevelPass(buf, dims, level, m, func(idx int, pred float64) float32 {
		return deq.Next(pred)
	})
}

// DecompressReference decodes buf through the closure-based scalar sweep.
// It accepts the same streams as Decompress and must produce bit-identical
// output and the same errors; it exists solely as the oracle for
// differential tests and is not optimized.
func DecompressReference(buf []byte) ([]float32, []int, error) {
	return decompress(buf, nil, closureSweep)
}
