// Remote ROI query walkthrough: build a brick store, publish it behind a
// plain HTTP file server (any range-capable origin — S3, GCS, nginx —
// behaves the same), then serve region-of-interest reads straight off the
// wire with store.OpenURL. Only the header, the index, and the bricks a
// region intersects ever cross the network, so a multi-terabyte archive
// in a bucket answers a small ROI with a handful of range requests.
//
// The same mount works one level up: `qozd -mount nyx=<url>` exposes the
// store over GET /v1/fields/nyx/region without the client linking qoz.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"qoz"
	"qoz/datagen"
	"qoz/store"
)

func main() {
	ctx := context.Background()

	// 1. Build the archive: a synthetic cosmology field in 16^3-point
	//    bricks under a 1e-3 relative bound.
	ds := datagen.NYX(64, 64, 64)
	path := filepath.Join(os.TempDir(), "remotequery.qozb")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Write(ctx, f, ds.Data, ds.Dims, store.WriteOptions{
		Opts:  qoz.Options{RelBound: 1e-3},
		Brick: []int{16, 16, 16},
	}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	content, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %s, %d bytes (CR %.1f), %d bricks\n",
		path, len(content), float64(ds.Len()*4)/float64(len(content)), 64)

	// 2. Publish it. A stand-in for the bucket: a localhost server that
	//    honors Range requests (http.ServeContent) and counts them.
	var ranges atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			ranges.Add(1)
		}
		w.Header().Set("ETag", `"remotequery-v1"`)
		http.ServeContent(w, r, "remotequery.qozb", time.Now(), bytes.NewReader(content))
	})}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/remotequery.qozb"
	fmt.Printf("origin:  %s\n", url)

	// 3. Open the archive over the wire. Only the header and index are
	//    fetched here; bricks stay remote until a region asks for them.
	s, err := store.OpenURL(url, store.Options{
		CacheBytes: 32 << 20,
		Remote: store.RemoteOptions{
			// By default a read fetches exactly the payload bytes it
			// decodes, one range request per run of touching bricks, all
			// in flight at once. ReadAhead lets a read also bridge gaps of
			// up to this many bytes between the bricks it wants: fewer
			// round trips for some unwanted bytes, worth it on a slow
			// origin read at a coarse level.
			ReadAhead:    4 << 10,
			MaxRetries:   3,
			RetryBackoff: 50 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	open := s.Stats()
	fmt.Printf("opened:  dims %v, brick %v, bound %.4g — %d bytes fetched of %d (%.1f%%)\n",
		s.Dims(), s.BrickShape(), s.ErrorBound(),
		open.RemoteBytes, len(content), 100*float64(open.RemoteBytes)/float64(len(content)))

	// 4. Serve an ROI across brick corners: 8 of the 64 bricks.
	lo, hi := []int{24, 24, 24}, []int{40, 40, 40}
	t0 := time.Now()
	roi, err := s.ReadRegion(ctx, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("ROI [%v,%v): %d points in %v — %d bricks decoded, %d range requests, %d bytes over the wire\n",
		lo, hi, len(roi), time.Since(t0), st.BricksDecoded, ranges.Load(), st.RemoteBytes)

	// The remote read must be bit-identical to a local one.
	local, err := store.OpenFile(path, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()
	want, err := local.ReadRegion(ctx, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(roi[i]) {
			log.Fatalf("remote read differs from local at point %d", i)
		}
	}
	fmt.Println("remote ROI is bit-identical to the local read")

	// 5. Overlapping ROI: bricks come from the shared decoded-brick cache,
	//    so nothing new crosses the network.
	before := s.Stats().RemoteBytes
	if _, err := s.ReadRegion(ctx, []int{24, 24, 24}, []int{36, 36, 36}); err != nil {
		log.Fatal(err)
	}
	st = s.Stats()
	fmt.Printf("overlapping ROI: %d cache hits, %d new bytes fetched\n",
		st.CacheHits, st.RemoteBytes-before)
}
