// Parallel-I/O example: how compression ratio turns into dump/load
// throughput at scale (the paper's Fig. 14). Codec profiles are measured
// on real data here, then extrapolated through the Bebop-like machine
// model to 1K–8K cores at 1.3 GB/core.
package main

import (
	"context"
	"fmt"
	"log"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
	"qoz/parallelio"
)

func main() {
	ds := datagen.Hurricane()
	opts := qoz.Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data)}
	fmt.Printf("profiling codecs on %s (ε=1e-3)...\n\n", ds)

	profiles := []parallelio.CodecProfile{parallelio.RawProfile()}
	for _, name := range qoz.Codecs() {
		p, err := parallelio.ProfileCodec(context.Background(), qoz.MustLookup(name), ds.Data, ds.Dims, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s compress %6.0f MB/s, decompress %6.0f MB/s, CR %6.1f\n",
			p.Name, p.CompressMBps, p.DecompressMBps, p.Ratio)
		profiles = append(profiles, p)
	}

	machine := parallelio.Bebop()
	fmt.Printf("\n%-8s %6s %9s %10s %10s\n", "codec", "cores", "total TB", "dump GB/s", "load GB/s")
	for _, p := range profiles {
		for _, cores := range []int{1024, 2048, 4096, 8192} {
			r, err := parallelio.Simulate(machine, p, cores, 1.3e9)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s %6d %9.1f %10.1f %10.1f\n",
				p.Name, cores, r.TotalGB/1000, r.DumpGBps, r.LoadGBps)
		}
	}
}
