// Quickstart: compress a 3D scientific field with QoZ, decompress it, and
// verify the error bound and quality metrics.
package main

import (
	"context"
	"fmt"
	"log"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

func main() {
	// A synthetic cosmology density field (stand-in for NYX baryon density).
	ds := datagen.NYX(64, 64, 64)
	fmt.Printf("dataset: %s, %d points\n", ds, ds.Len())

	// Compress with a value-range-relative bound of 1e-3, letting QoZ
	// auto-tune for maximum compression ratio (the default metric).
	buf, stats, err := qoz.CompressStats(ds.Data, ds.Dims, qoz.Options{
		RelBound: 1e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed: %d -> %d bytes (CR %.1f)\n",
		ds.Len()*4, len(buf), metrics.CompressionRatio(ds.Len(), len(buf)))
	fmt.Printf("auto-tuned parameters: α=%.2f β=%.2f over %d interpolation levels\n",
		stats.Alpha, stats.Beta, stats.Levels)

	// Decompress and verify.
	recon, dims, err := qoz.Decode[float32](context.Background(), buf)
	if err != nil {
		log.Fatal(err)
	}
	maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
	psnr, _ := metrics.PSNR(ds.Data, recon)
	fmt.Printf("reconstructed dims %v\n", dims)
	fmt.Printf("max abs error: %.4g (bound %.4g) — bound respected: %v\n",
		maxErr, stats.AbsBound, maxErr <= stats.AbsBound)
	fmt.Printf("PSNR: %.2f dB\n", psnr)
}
