package core

// Ablation benchmarks for the paper's design choices: anchor stride,
// sampling rate, and the cost of each tuning mode. Each benchmark
// reports the achieved compression ratio alongside throughput, so the
// trade-off each knob buys is visible in one run:
//
//	go test -bench 'Ablation' -benchmem ./internal/core
import (
	"testing"

	"qoz/datagen"
	"qoz/internal/sampling"
	"qoz/metrics"
)

func benchOptions(b *testing.B, ds datagen.Dataset, opts Options) {
	opts.ErrorBound = 1e-3 * metrics.ValueRange(ds.Data)
	b.SetBytes(int64(ds.Len() * 4))
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := Compress(ds.Data, ds.Dims, opts)
		if err != nil {
			b.Fatal(err)
		}
		size = len(buf)
	}
	b.ReportMetric(metrics.CompressionRatio(ds.Len(), size), "CR")
}

func BenchmarkAblationAnchorStride16(b *testing.B) {
	benchOptions(b, datagen.Miranda(48, 64, 64), Options{AnchorStride: 16})
}

func BenchmarkAblationAnchorStride32(b *testing.B) {
	benchOptions(b, datagen.Miranda(48, 64, 64), Options{AnchorStride: 32})
}

func BenchmarkAblationAnchorStride64(b *testing.B) {
	benchOptions(b, datagen.Miranda(48, 64, 64), Options{AnchorStride: 64})
}

func BenchmarkAblationNoAnchors(b *testing.B) {
	benchOptions(b, datagen.Miranda(48, 64, 64), Options{DisableAnchors: true})
}

func BenchmarkAblationSampleRate01pct(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{SampleRate: 0.001})
}

func BenchmarkAblationSampleRate05pct(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{SampleRate: 0.005})
}

func BenchmarkAblationSampleRate2pct(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{SampleRate: 0.02})
}

func BenchmarkAblationModeCR(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{Mode: ModeCR})
}

func BenchmarkAblationModePSNR(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{Mode: ModePSNR})
}

func BenchmarkAblationModeSSIM(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{Mode: ModeSSIM})
}

func BenchmarkAblationModeAC(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{Mode: ModeAC})
}

func BenchmarkAblationModeFixed(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{Mode: ModeFixed, Alpha: 1.5, Beta: 3})
}

func BenchmarkAblationNoLevelSelect(b *testing.B) {
	benchOptions(b, datagen.NYX(64, 64, 64), Options{DisableLevelSelect: true, DisableParamTuning: true})
}

// BenchmarkCompressQoZBrick64 is what the brick store pays per brick: a
// 64^3 cut of a larger field, tuned for compression ratio on its own. It
// reports the tuner's work in its exact units next to time and memory.
func BenchmarkCompressQoZBrick64(b *testing.B) {
	ds := datagen.Miranda(96, 96, 96)
	brick := sampling.CenterBlock(ds.Data, ds.Dims, 64)
	opts := Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data), Mode: ModeCR}
	b.SetBytes(int64(len(brick.Data) * 4))
	b.ReportAllocs()
	var stats TunerStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CompressDetailed(brick.Data, brick.Dims, opts)
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Tuner
	}
	b.ReportMetric(float64(stats.Trials), "trials/op")
	b.ReportMetric(float64(stats.Level1Sweeps), "level1-sweeps/op")
}
