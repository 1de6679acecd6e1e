// ROI query walkthrough: build a brick store from a large field, then
// serve small region-of-interest reads out of it — decoding only the
// bricks each region touches, with repeated overlapping reads hitting the
// decoded-brick cache. This is the access pattern of post-hoc analysis
// over a compressed simulation archive: nobody reloads a multi-terabyte
// snapshot to look at one halo.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"qoz"
	"qoz/datagen"
	"qoz/store"
)

func main() {
	ctx := context.Background()

	// A synthetic cosmology field (stand-in for a NYX snapshot variable).
	ds := datagen.NYX(128, 128, 128)
	fmt.Printf("dataset: %s, %d points (%.0f MiB raw)\n",
		ds, ds.Len(), float64(ds.Len()*4)/(1<<20))

	// 1. Build the store: 32^3 bricks, each compressed independently with
	//    the QoZ codec under a relative bound of 1e-3.
	path := filepath.Join(os.TempDir(), "roiquery.qozb")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Write(ctx, f, ds.Data, ds.Dims, store.WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{32, 32, 32},
	}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("store: %s, %d bytes (CR %.1f)\n", path, st.Size(),
		float64(ds.Len()*4)/float64(st.Size()))

	// 2. Open it for random access with a 32 MiB decoded-brick cache.
	s, err := store.OpenFile(path, store.Options{CacheBytes: 32 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	fmt.Printf("opened: dims %v, brick %v, %d bricks, bound %.4g\n",
		s.Dims(), s.BrickShape(), s.NumBricks(), s.ErrorBound())

	// 3. Extract a small ROI — a 32x32x32 box straddling brick corners, so
	//    it touches 8 of the 64 bricks and leaves the rest on disk.
	lo, hi := []int{16, 16, 16}, []int{48, 48, 48}
	t0 := time.Now()
	roi, err := s.ReadRegion(ctx, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	cold := time.Since(t0)
	stats := s.Stats()
	fmt.Printf("ROI [%v,%v): %d points in %v, decoding %d of %d bricks\n",
		lo, hi, len(roi), cold, stats.BricksDecoded, s.NumBricks())

	// Verify the error bound holds on the extracted region.
	worst := 0.0
	k := 0
	for z := lo[0]; z < hi[0]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[2]; x < hi[2]; x++ {
				orig := float64(ds.Data[(z*128+y)*128+x])
				worst = math.Max(worst, math.Abs(orig-float64(roi[k])))
				k++
			}
		}
	}
	fmt.Printf("max abs error in ROI: %.4g (bound %.4g) — bound respected: %v\n",
		worst, s.ErrorBound(), worst <= s.ErrorBound())

	// 4. Read an overlapping ROI: shared bricks come from the cache.
	t0 = time.Now()
	if _, err := s.ReadRegion(ctx, []int{16, 16, 16}, []int{40, 40, 40}); err != nil {
		log.Fatal(err)
	}
	warm := time.Since(t0)
	stats = s.Stats()
	fmt.Printf("overlapping ROI: %v (was %v cold); cache hits %d, cached %.1f MiB\n",
		warm, cold, stats.CacheHits, float64(stats.CachedBytes)/(1<<20))

	// 5. Compare with what serving the same ROI used to cost: decoding the
	//    whole field through the streaming codec.
	t0 = time.Now()
	if _, err := s.ReadField(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-field decode for contrast: %v\n", time.Since(t0))
}
