// Cosmology example: rate-distortion study on a lognormal density field
// (NYX stand-in), sweeping error bounds and comparing QoZ against the SZ3
// and ZFP baselines — a miniature version of the paper's Fig. 8.
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
	ctx := context.Background()
	ds := datagen.NYX()
	fmt.Printf("dataset: %s — rate-distortion sweep\n\n", ds)
	// QoZ tunes for PSNR; the baselines have no tuning and ignore Metric.
	codecs := []qoz.Codec{qoz.MustLookup("qoz"), qoz.MustLookup("sz3"), qoz.MustLookup("zfp")}
	vr := metrics.ValueRange(ds.Data)
	fmt.Printf("%-10s", "ε")
	for _, c := range codecs {
		fmt.Printf(" %22s", c.Name()+" bpp/PSNR")
	}
	fmt.Println()
	for _, rel := range []float64{1e-2, 3e-3, 1e-3, 3e-4, 1e-4} {
		fmt.Printf("%-10.0e", rel)
		for _, c := range codecs {
			buf, err := c.Compress(ctx, ds.Data, ds.Dims, qoz.Options{ErrorBound: rel * vr, Metric: qoz.TunePSNR})
			if err != nil {
				log.Fatal(err)
			}
			recon, _, err := c.Decompress(ctx, buf)
			if err != nil {
				log.Fatal(err)
			}
			psnr, _ := metrics.PSNR(ds.Data, recon)
			fmt.Printf("      %6.3f / %6.2f", metrics.BitRate(len(buf), ds.Len()), psnr)
		}
		fmt.Println()
	}
}
