package pool

// Capacity-bucketed slice free lists for decode-path scratch. Hot decode
// loops (Huffman symbol runs, fetched brick ranges) allocate large
// short-lived slices at a steady rate; recycling them through per-size
// sync.Pools makes steady-state serving allocation-free. Slices are
// bucketed by power-of-two capacity: Get draws from the smallest bucket
// that can hold n, Put files a slice under the largest bucket its
// capacity fully serves. Returned slices carry arbitrary stale contents —
// callers must treat them as uninitialized memory.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

type slicePool[T any] struct {
	// limit is the largest length and capacity (in elements) the pool
	// recycles, at most maxSlabBytes; longer requests are plain
	// allocations and larger slices are dropped on put.
	limit   int
	buckets [slabBits + 1]sync.Pool
	// boxes holds the *[]T headers get has emptied, so put can file a
	// slice without allocating a header for it.
	boxes sync.Pool
}

// get returns a slice of length n with undefined contents.
func (p *slicePool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	if n > p.limit {
		return make([]T, n)
	}
	b := bits.Len(uint(n - 1)) // smallest b with 1<<b >= n
	if v := p.buckets[b].Get(); v != nil {
		box := v.(*[]T)
		s := (*box)[:n]
		*box = nil
		p.boxes.Put(box)
		return s
	}
	return make([]T, n, 1<<b)
}

// put files s for reuse. Safe to call with nil or tiny slices; the slice
// must not be referenced by the caller afterwards.
func (p *slicePool[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c > p.limit {
		return
	}
	// File under the largest bucket the capacity fully serves, so every
	// get from that bucket fits within cap.
	b := bits.Len(uint(c)) - 1
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.buckets[b].Put(box)
}

// Slabs: the memory a served region lives in between its produce and its
// last write (qozd's sample buffers and stitched bodies, the fan-out's
// sub-read bodies), and a decoded brick between its decode and its last
// reader's release. They have pools of their own, bounded at
// maxSlabBytes per slab by a constant rather than a setting: a pooled slab
// stays reachable for two collections after its last use, so recycling the
// occasional full-field read (8 MiB and its sub-read bodies) would double
// the collector's heap target to save one allocation, while the hot reads
// — a brick or a few, up to serve_scan's 48³ box, 432 KiB in float32 —
// are what arrive hundreds of times a second. A symbol run of up to
// 128 Ki symbols fits; a 64³ brick (1 MiB in float32), a float64 48³ box
// (864 KiB) and longer runs, as whole fields decode, are left to the
// collector.
const maxSlabBytes = 1 << slabBits

const slabBits = 19

var (
	byteSlabs    = slicePool[byte]{limit: maxSlabBytes}
	uint32Slabs  = slicePool[uint32]{limit: maxSlabBytes / 4}
	float32Slabs = slicePool[float32]{limit: maxSlabBytes / 4}
	float64Slabs = slicePool[float64]{limit: maxSlabBytes / 8}
)

func slabPool[T byte | uint32 | float32 | float64]() *slicePool[T] {
	var p any
	switch any(T(0)).(type) {
	case byte:
		p = &byteSlabs
	case uint32:
		p = &uint32Slabs
	case float32:
		p = &float32Slabs
	default:
		p = &float64Slabs
	}
	return p.(*slicePool[T])
}

// Slab returns a slab of n elements with undefined contents:
// recycled memory up to maxSlabBytes, a plain allocation above, counted in
// UnpooledSlabBytes.
func Slab[T byte | uint32 | float32 | float64](n int) []T {
	p := slabPool[T]()
	if n > p.limit {
		unpooledBytes.Add(uint64(n) * uint64(unsafe.Sizeof(T(0))))
	}
	s := p.get(n)
	if poisonSlabs.Load() && cap(s) > 0 {
		released.take(&s[:1][0])
	}
	return s
}

// PutSlab ends the caller's ownership of s, whether it came from Slab or
// from make: s must not be referenced afterwards. Slabs above
// maxSlabBytes are left to the collector.
func PutSlab[T byte | uint32 | float32 | float64](s []T) {
	if poisonSlabs.Load() && cap(s) > 0 {
		s = s[:cap(s)]
		released.give(&s[0])
		for i := range s {
			s[i] = slabPoison
		}
	}
	slabPool[T]().put(s)
}

var unpooledBytes atomic.Uint64

// UnpooledSlabBytes is the bytes Slab has handed out as plain allocations,
// above maxSlabBytes, since the process started: what the pools could not
// recycle.
func UnpooledSlabBytes() uint64 { return unpooledBytes.Load() }

// slabPoison is 0xA5 as a byte and 165 as a sample: neither is a value
// the test fields hold.
const slabPoison = 0xA5

var poisonSlabs atomic.Bool

// PoisonSlabs is a hook for tests of the release protocol: while on,
// PutSlab overwrites every slab it is given, recycled or not, so a reader
// that kept a reference past the release serves the pattern instead of
// plausible samples, and it panics on a slab released twice — given back
// again before Slab handed it out anew.
func PoisonSlabs(on bool) {
	poisonSlabs.Store(on)
	if !on {
		released.reset()
	}
}

// released is the set of slabs PutSlab took while poisoning, keyed by
// their first element, that Slab has not handed out since.
var released releasedSlabs

// releasedSlabs tracks released slabs for PoisonSlabs. Holding a key
// keeps a slab the pools dropped alive, so its address cannot come back
// as a fresh allocation and look released.
type releasedSlabs struct {
	mu    sync.Mutex
	slabs map[any]struct{}
}

// give records a release, panicking on a slab already released.
func (r *releasedSlabs) give(first any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slabs[first]; ok {
		panic("pool: slab released twice")
	}
	if r.slabs == nil {
		r.slabs = map[any]struct{}{}
	}
	r.slabs[first] = struct{}{}
}

// take records a slab handed out again.
func (r *releasedSlabs) take(first any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.slabs, first)
}

func (r *releasedSlabs) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slabs = nil
}
