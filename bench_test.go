// Per-codec throughput micro-benchmarks and the streaming worker-scaling
// curves, for profiling one code path in isolation:
//
//	go test -bench=. -benchmem
//
// They are not the repository's performance meter — that is bench/run.sh
// (docs/PERFORMANCE.md). The paper's tables and figures are printed by
// `go run ./cmd/benchsuite` and exercised by internal/harness's tests.
package qoz_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// ---- per-codec throughput micro-benchmarks ----

// benchCompress times the registry codec name at ε = 1e-3 under opts.
func benchCompress(b *testing.B, name string, opts qoz.Options, ds datagen.Dataset) {
	ctx, c := context.Background(), qoz.MustLookup(name)
	opts.ErrorBound = 1e-3 * metrics.ValueRange(ds.Data)
	b.SetBytes(int64(ds.Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(ctx, ds.Data, ds.Dims, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecompress(b *testing.B, name string, ds datagen.Dataset) {
	ctx, c := context.Background(), qoz.MustLookup(name)
	buf, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ds.Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decompress(ctx, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressQoZNYX(b *testing.B) {
	benchCompress(b, "qoz", qoz.Options{}, datagen.NYX(64, 64, 64))
}

func BenchmarkCompressSZ3NYX(b *testing.B) {
	benchCompress(b, "sz3", qoz.Options{}, datagen.NYX(64, 64, 64))
}

func BenchmarkCompressSZ2NYX(b *testing.B) {
	benchCompress(b, "sz2", qoz.Options{}, datagen.NYX(64, 64, 64))
}

func BenchmarkCompressZFPNYX(b *testing.B) {
	benchCompress(b, "zfp", qoz.Options{}, datagen.NYX(64, 64, 64))
}

func BenchmarkCompressMGARDNYX(b *testing.B) {
	benchCompress(b, "mgard", qoz.Options{}, datagen.NYX(64, 64, 64))
}

func BenchmarkDecompressQoZNYX(b *testing.B) {
	benchDecompress(b, "qoz", datagen.NYX(64, 64, 64))
}

func BenchmarkDecompressSZ3NYX(b *testing.B) {
	benchDecompress(b, "sz3", datagen.NYX(64, 64, 64))
}

func BenchmarkCompressQoZCESM2D(b *testing.B) {
	benchCompress(b, "qoz", qoz.Options{}, datagen.CESMATM(256, 512))
}

func BenchmarkCompressQoZPSNRMode(b *testing.B) {
	benchCompress(b, "qoz", qoz.Options{Metric: qoz.TunePSNR}, datagen.Miranda(48, 64, 64))
}

// ---- streaming slab encode: worker scaling on a >=64 MB field ----

var streamBench struct {
	sync.Once
	data []float32
	dims []int
}

// streamBenchField synthesizes a 64 MiB (16 Mi point) smooth 3-D field
// once; datagen's spectral generators would dominate setup time at this
// size.
func streamBenchField() ([]float32, []int) {
	streamBench.Do(func() {
		dims := []int{256, 256, 256}
		n := dims[0] * dims[1] * dims[2]
		data := make([]float32, n)
		i := 0
		for z := 0; z < dims[0]; z++ {
			for y := 0; y < dims[1]; y++ {
				for x := 0; x < dims[2]; x++ {
					data[i] = float32(math.Sin(float64(z)/17) +
						math.Cos(float64(y)/23)*math.Sin(float64(x)/11) +
						0.001*float64((x^y^z)%97))
					i++
				}
			}
		}
		streamBench.data, streamBench.dims = data, dims
	})
	return streamBench.data, streamBench.dims
}

// BenchmarkStreamEncodeWorkers measures the chunked streaming encode path
// at increasing worker counts; throughput should scale with workers until
// cores saturate. Run with:
//
//	go test -bench StreamEncodeWorkers -benchtime 1x
func BenchmarkStreamEncodeWorkers(b *testing.B) {
	data, dims := streamBenchField()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc, err := qoz.NewEncoder(io.Discard, qoz.StreamOptions{
					Opts:       qoz.Options{RelBound: 1e-3},
					SlabPoints: 1 << 21, // 8 slabs of 32 rows
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := enc.Encode(context.Background(), data, dims); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamDecodeWorkers is the matching decode-side scaling curve.
func BenchmarkStreamDecodeWorkers(b *testing.B) {
	data, dims := streamBenchField()
	var buf bytes.Buffer
	enc, err := qoz.NewEncoder(&buf, qoz.StreamOptions{
		Opts:       qoz.Options{RelBound: 1e-3},
		SlabPoints: 1 << 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := enc.Encode(context.Background(), data, dims); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec := qoz.NewDecoder(bytes.NewReader(buf.Bytes()))
				dec.Workers = workers
				if _, _, err := dec.Decode(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
