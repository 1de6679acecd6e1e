// Quality-tuning example: the AC-preferred mode in action. Many analyses
// want compression errors that look like white noise (low autocorrelation);
// this example shows QoZ trading a little ratio for much whiter errors on
// a turbulence field — the paper's Fig. 10 scenario.
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
	ds := datagen.Miranda()
	fmt.Printf("dataset: %s — PSNR-preferred vs AC-preferred tuning\n\n", ds)
	fmt.Printf("%-16s %10s %10s %12s\n", "mode", "CR", "PSNR(dB)", "|AC(lag1)|")
	for _, m := range []qoz.Tuning{qoz.TunePSNR, qoz.TuneAC} {
		buf, err := qoz.Encode(context.Background(), nil, ds.Data, ds.Dims, qoz.Options{
			RelBound: 1e-3,
			Metric:   m,
		})
		if err != nil {
			log.Fatal(err)
		}
		recon, _, err := qoz.Decode[float32](context.Background(), buf)
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := metrics.PSNR(ds.Data, recon)
		ac, _ := metrics.AutoCorrelation(ds.Data, recon, 1)
		fmt.Printf("%-16s %10.1f %10.2f %12.4f\n",
			m, metrics.CompressionRatio(ds.Len(), len(buf)), psnr, abs(ac))
	}
	fmt.Println("\nlower |AC| means compression errors closer to white noise")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
