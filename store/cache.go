package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"qoz/internal/pool"
)

// Cache is a byte-budgeted cache of decoded bricks that can be shared
// across Stores — e.g. one process-wide cache behind every field a server
// mounts — so decoded-brick memory is bounded globally rather than per
// store. Entries are accounted at their actual decoded size (4 bytes per
// float32 point, 8 per float64 point), so float32 and float64 stores share
// one byte budget honestly. Pass it via Options.Cache; when absent each
// store gets a private cache sized by Options.CacheBytes. A decoded brick
// that does not fit is admitted only when it has been read more often
// than every least-recently-used entry it would evict; eviction among
// admitted entries is least-recently-used. Safe for concurrent use.
type Cache struct {
	lru *lruCache
}

// NewCache returns a shared decoded-brick cache with the given byte
// budget; a budget <= 0 disables caching.
func NewCache(budget int64) *Cache {
	return &Cache{lru: newLRUCache(budget)}
}

// Bytes returns the decoded bytes currently held across every store the
// cache serves.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.cachedBytes()
}

// EvictedBytes returns the decoded bytes the cache has evicted to stay
// within its budget since it was made: the churn behind its misses.
// Entries dropped because their store closed are not counted.
func (c *Cache) EvictedBytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.evictedBytes()
}

// RejectedBytes returns the decoded bytes the cache has refused to admit
// since it was made: decodes read no more often than the entries they
// would have evicted, which their readers kept and handed back instead.
func (c *Cache) RejectedBytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.rejectedBytes()
}

// cacheKey identifies a decoded brick within a (possibly shared) cache:
// the owning store disambiguates brick indices when one cache serves
// several stores, and the payload offset makes the key generation-aware —
// a brick rewritten by a later generation of a mutable store lands at a
// fresh offset (commits only append), so its stale decode can never be
// served again, while unchanged bricks keep hitting. Entries orphaned by
// a rewrite age out: their read counts halve every sample period, and
// recency order carries them to the eviction end. level distinguishes
// progressive decodes: 0 is the full brick; a non-zero level is the
// compacted coarse grid a level-prefix decode materialized, which holds
// different (and fewer) points than the full decode under the same brick.
type cacheKey struct {
	owner *Store
	epoch uint64
	brick int
	off   int64
	level int
}

// lruCache is a byte-budgeted cache of decoded bricks with frequency-based
// admission (TinyLFU: Einziger, Friedman and Manes, ACM TOS 2017).
// Repeated overlapping region reads hit the cache instead of re-running
// the codec. Admitted entries are evicted least-recently-used once the
// decoded bytes exceed the budget, but a decode that does not fit is
// admitted only when it has been read more often than every entry it would
// evict — ties refuse — so a one-off decode (a scan, a corner brick of a
// box) cannot push out the bricks most reads share. Values are stored
// untyped ([]float32 or []float64, matching the owning store's element
// kind) with their byte size carried alongside, so one budget accounts
// mixed-precision stores accurately. Safe for concurrent use.
//
// Each brick read counts once in freq: a hit in get, or the decode offered
// to offer before it runs (a miss is looked up twice, by the fill loop and
// by the decode task, so get does not count it). Every freqPeriod × (entries+1) counted
// reads every count halves and the zeros drop, so old popularity fades;
// counts also halve whenever the table would hold more than
// freqTableFactor × (entries+1) keys, which bounds its memory by the
// entry count however many distinct bricks pass through.
//
// An entry owns its slice and counts references to it: the cache holds
// one while the entry is listed, and every reader that got the entry from
// get or put holds one until it calls release. Eviction drops the cache's
// reference; whichever release is last hands the slice to pool.PutSlab,
// so the next decode draws it instead of allocating, and no slice goes
// back while a reader still copies out of it.
type lruCache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	evicted  int64      // bytes dropped to make room, over the cache's life
	rejected int64      // bytes admission refused, over the cache's life
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[cacheKey]*list.Element
	freq     map[cacheKey]uint32 // reads per brick, halved every sample period
	reads    int                 // counted reads since the last halving
}

const (
	// freqPeriod is the sample period per entry: counts halve once every
	// freqPeriod × (entries+1) counted reads.
	freqPeriod = 64
	// freqTableFactor bounds the frequency table: after every cache
	// operation it holds at most freqTableFactor × (entries+1) keys.
	freqTableFactor = 16
)

type cacheEntry struct {
	key   cacheKey
	data  any // []float32 or []float64
	bytes int64
	refs  atomic.Int32
}

// release drops one reference to the entry; the last hands its slice back
// to the slab pool.
func (e *cacheEntry) release() {
	switch n := e.refs.Add(-1); {
	case n == 0:
		putSamples(e.data)
	case n < 0:
		panic("store: decoded brick released more often than referenced")
	}
}

// putSamples hands a decoded brick to the slab pool.
func putSamples(data any) {
	switch d := data.(type) {
	case []float32:
		pool.PutSlab(d)
	case []float64:
		pool.PutSlab(d)
	}
}

func newLRUCache(budget int64) *lruCache {
	if budget <= 0 {
		return nil
	}
	return &lruCache{budget: budget, order: list.New(), byKey: map[cacheKey]*list.Element{}, freq: map[cacheKey]uint32{}}
}

// get returns the cached brick with a reference the caller releases,
// counts the read, and marks it most recently used.
func (c *lruCache) get(key cacheKey) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.count(key)
	c.age()
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	ent.refs.Add(1)
	return ent, true
}

// offer counts a read of key and returns admission's verdict on a decode
// of it of the given byte size, made before the caller decodes: true when
// put would take the decode now. A refusal is final for this decode and
// is counted in rejectedBytes; it also covers caching off, a brick larger
// than the whole budget, and a key already cached (which is refreshed as
// the most recently touched entry). Counting here, once per decode
// offered, is what put did when it was the only call; an admitted decode
// is counted once, by offer, and its put re-checks admission without
// counting.
func (c *lruCache) offer(key cacheKey, bytes int64) bool {
	if c == nil || bytes > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.count(key)
	if c.refuse(key, f, bytes) {
		c.age()
		return false
	}
	return true // put ages the counts once it has inserted
}

// put offers the decoded brick of key, of the given byte size, that offer
// admitted. It returns the new entry with a reference for the caller,
// which gives up ownership of data, evicting least-recently-used entries
// until the budget holds. It returns nil when it does not take data —
// admission, re-checked since other reads may have touched the cache
// while the caller decoded, refuses it or the key was cached meanwhile —
// and the caller keeps it.
func (c *lruCache) put(key cacheKey, data any, bytes int64) *cacheEntry {
	if c == nil || bytes > c.budget {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.age()
	if c.refuse(key, c.freq[key], bytes) {
		return nil
	}
	ent := &cacheEntry{key: key, data: data, bytes: bytes}
	ent.refs.Store(2) // the cache's and the caller's
	c.byKey[key] = c.order.PushFront(ent)
	c.bytes += bytes
	for c.bytes > c.budget {
		c.evicted += c.drop(c.order.Back())
	}
	return ent
}

// refuse reports whether the cache turns away a decode of key read f
// times: the key is already cached — a concurrent read put it there; it
// is still the most recently touched entry, so its recency is refreshed,
// since leaving it in place would let the freshest brick sit at the LRU
// end and be evicted next — or admission refuses it, which is counted in
// rejected. The caller holds c.mu.
func (c *lruCache) refuse(key cacheKey, f uint32, bytes int64) bool {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return true
	}
	if !c.admit(f, c.bytes+bytes-c.budget) {
		c.rejected += bytes
		return true
	}
	return false
}

// admit reports whether a candidate read f times may evict the
// least-recently-used entries that free need bytes: only if each was read
// fewer times. The walk ends within the list, since a brick put accepts is
// no larger than the budget. The caller holds c.mu.
func (c *lruCache) admit(f uint32, need int64) bool {
	for el := c.order.Back(); need > 0; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		if c.freq[ent.key] >= f {
			return false
		}
		need -= ent.bytes
	}
	return true
}

// count records one read of key and returns its count. The caller holds
// c.mu.
func (c *lruCache) count(key cacheKey) uint32 {
	f := c.freq[key] + 1
	c.freq[key] = f
	c.reads++
	return f
}

// age halves the counts once the sample period has passed, and as often as
// it takes to keep the table within freqTableFactor × (entries+1) keys.
// The caller holds c.mu.
func (c *lruCache) age() {
	n := len(c.byKey) + 1
	if c.reads >= freqPeriod*n {
		c.halve()
	}
	for len(c.freq) > freqTableFactor*n {
		c.halve()
	}
}

// halve halves every count, dropping those that reach zero. The caller
// holds c.mu.
func (c *lruCache) halve() {
	for k, f := range c.freq {
		if f >>= 1; f == 0 {
			delete(c.freq, k)
		} else {
			c.freq[k] = f
		}
	}
	c.reads = 0
}

// drop unlists an entry and releases the cache's reference to it,
// returning its byte size. The caller holds c.mu.
func (c *lruCache) drop(el *list.Element) int64 {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.byKey, ent.key)
	c.bytes -= ent.bytes
	ent.release()
	return ent.bytes
}

// evictOwner drops every entry owned by one store, and its read counts. A
// closed store's bricks are unreachable (no future get carries its
// pointer), so leaving them in a shared cache would pin dead decoded data —
// and the dead Store itself, which a count's key also holds — against the
// budget until churn happens to push them out.
func (c *lruCache) evictOwner(owner *Store) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.owner == owner {
			c.drop(el)
		}
		el = next
	}
	for k := range c.freq {
		if k.owner == owner {
			delete(c.freq, k)
		}
	}
	c.age()
}

// cachedBytes returns the decoded bytes currently held.
func (c *lruCache) cachedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictedBytes returns the bytes eviction has dropped to make room.
func (c *lruCache) evictedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// rejectedBytes returns the bytes admission has refused.
func (c *lruCache) rejectedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected
}
