package qoz_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"qoz"
	"qoz/metrics"
)

// ExampleEncode shows the basic error-bounded round trip.
func ExampleEncode() {
	// A small smooth 2D field.
	ny, nx := 32, 48
	data := make([]float32, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			data[y*nx+x] = float32(math.Sin(float64(y)/5) * math.Cos(float64(x)/7))
		}
	}
	ctx := context.Background()
	buf, err := qoz.Encode(ctx, nil, data, []int{ny, nx}, qoz.Options{ErrorBound: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	recon, dims, err := qoz.Decode[float32](ctx, buf)
	if err != nil {
		log.Fatal(err)
	}
	maxErr, _ := metrics.MaxAbsError(data, recon)
	fmt.Println("dims:", dims)
	fmt.Println("bound respected:", maxErr <= 1e-3)
	// Output:
	// dims: [32 48]
	// bound respected: true
}

// ExampleCompressStats shows how to observe the online tuning decisions.
func ExampleCompressStats() {
	data := make([]float32, 64*64)
	for i := range data {
		data[i] = float32(i % 64)
	}
	_, stats, err := qoz.CompressStats(data, []int{64, 64}, qoz.Options{
		RelBound: 1e-3,
		Metric:   qoz.TunePSNR,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alpha >= 1:", stats.Alpha >= 1)
	fmt.Println("levels > 0:", stats.Levels > 0)
	// Output:
	// alpha >= 1: true
	// levels > 0: true
}
