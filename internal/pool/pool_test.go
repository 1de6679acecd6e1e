package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		var hits [57]atomic.Int32
		Run(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestRunErrStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := RunErr(context.Background(), 1000, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		if i > 500 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Most of the tail must have been skipped once the error registered.
	if after.Load() > 900 {
		t.Fatalf("%d late items ran after the failure", after.Load())
	}
}

func TestRunErrHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunErr(ctx, 10, 2, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("work ran under a canceled context")
	}
}

func TestSlicePoolRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000, 1 << 20} {
		s := Uint32s(n)
		if len(s) != n {
			t.Fatalf("Uint32s(%d): len %d", n, len(s))
		}
		if cap(s) < n {
			t.Fatalf("Uint32s(%d): cap %d < n", n, cap(s))
		}
		for i := range s {
			s[i] = uint32(i)
		}
		PutUint32s(s)
		r := Uint32s(n)
		if len(r) != n || cap(r) < n {
			t.Fatalf("reuse Uint32s(%d): len %d cap %d", n, len(r), cap(r))
		}
		PutUint32s(r)
	}
	// A slice put with a non-power-of-two capacity must only be served to
	// requests its capacity can hold.
	odd := make([]uint32, 0, 100) // filed under bucket 6 (64)
	PutUint32s(odd)
	got := Uint32s(64)
	if cap(got) < 64 {
		t.Fatalf("bucketed slice too small: cap %d", cap(got))
	}
	PutBytes(Bytes(512))
	PutFloat32s(Float32s(512))
	if Bytes(0) != nil || Uint32s(-1) != nil {
		t.Fatal("zero-length get should be nil")
	}
}

// TestSlabBound pins what the slab pools recycle: nothing above
// MaxSlabBytes, whatever its element type, and not a slab whose capacity
// merely rounds down to a bucket under the bound.
func TestSlabBound(t *testing.T) {
	for _, n := range []int{1, 1000, MaxSlabBytes / 8, MaxSlabBytes/8 + 1, MaxSlabBytes + 1} {
		if s := Slab[float64](n); len(s) != n {
			t.Fatalf("Slab[float64](%d): len %d", n, len(s))
		}
	}
	// Dropped slabs never come back; held ones may (sync.Pool promises
	// nothing), so only the negative is asserted.
	samePlace := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }
	big := Slab[byte](MaxSlabBytes + 1)
	if cap(big) != MaxSlabBytes+1 {
		t.Errorf("a slab above the bound has cap %d, want exactly its length: it is not headed for a bucket", cap(big))
	}
	PutSlab(big)
	odd := make([]byte, MaxSlabBytes+MaxSlabBytes/2) // would file under the 256 KiB bucket
	PutSlab(odd)
	for i := 0; i < 8; i++ {
		if s := Slab[byte](MaxSlabBytes); samePlace(s, big) || samePlace(s, odd) {
			t.Fatal("a slab above the bound was recycled")
		}
	}
	PutSlab([]float32(nil))

	PoisonSlabs(true)
	defer PoisonSlabs(false)
	f := Slab[float32](10)
	b := Slab[byte](10)
	PutSlab(f)
	PutSlab(b)
	if f[9] != slabPoison || b[9] != slabPoison {
		t.Errorf("released slabs hold %v and %#x, want the poison pattern", f[9], b[9])
	}
}
