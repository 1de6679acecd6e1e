// Climate example: compress a 2D climate-model field under different
// quality-metric inclinations (the paper's Fig. 1 scenario) and compare
// what each mode delivers at the same error bound.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

func main() {
	ds := datagen.CESMATM() // 450x900 atmosphere field
	fmt.Printf("dataset: %s — same error bound, different quality inclinations\n\n", ds)

	modes := []struct {
		name   string
		metric qoz.Tuning
	}{
		{"max compression ratio", qoz.TuneCR},
		{"rate-PSNR preferred", qoz.TunePSNR},
		{"rate-SSIM preferred", qoz.TuneSSIM},
		{"low error autocorrelation", qoz.TuneAC},
	}
	fmt.Printf("%-28s %8s %9s %8s %8s\n", "mode", "CR", "PSNR(dB)", "SSIM", "AC(lag1)")
	for _, m := range modes {
		buf, err := qoz.Encode(context.Background(), nil, ds.Data, ds.Dims, qoz.Options{
			RelBound: 1e-3,
			Metric:   m.metric,
		})
		if err != nil {
			log.Fatal(err)
		}
		recon, _, err := qoz.Decode[float32](context.Background(), buf)
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := metrics.PSNR(ds.Data, recon)
		ssim, _ := metrics.SSIM(ds.Data, recon, ds.Dims)
		ac, _ := metrics.AutoCorrelation(ds.Data, recon, 1)
		fmt.Printf("%-28s %8.1f %9.2f %8.4f %+8.4f\n",
			m.name, metrics.CompressionRatio(ds.Len(), len(buf)), psnr, ssim, ac)
	}
	fmt.Fprintln(os.Stderr, "\nevery mode respects the same point-wise error bound; only the rate/quality trade-off shifts")
}
