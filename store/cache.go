package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"qoz/internal/pool"
)

// Cache is a byte-budgeted LRU cache of decoded bricks that can be shared
// across Stores — e.g. one process-wide cache behind every field a server
// mounts — so decoded-brick memory is bounded globally rather than per
// store. Entries are accounted at their actual decoded size (4 bytes per
// float32 point, 8 per float64 point), so float32 and float64 stores share
// one byte budget honestly. Pass it via Options.Cache; when absent each
// store gets a private cache sized by Options.CacheBytes. Safe for
// concurrent use.
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

// cacheKey identifies a decoded brick within a (possibly shared) cache:
// the owning store disambiguates brick indices when one cache serves
// several stores, and the payload offset makes the key generation-aware —
// a brick rewritten by a later generation of a mutable store lands at a
// fresh offset (commits only append), so its stale decode can never be
// served again, while unchanged bricks keep hitting. Entries orphaned by
// a rewrite age out through ordinary LRU eviction. level distinguishes
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

// lruCache is a byte-budgeted LRU cache of decoded bricks. Repeated
// overlapping region reads hit the cache instead of re-running the codec;
// eviction is least-recently-used once the decoded bytes exceed the
// budget. Values are stored untyped ([]float32 or []float64, matching the
// owning store's element kind) with their byte size carried alongside, so
// one budget accounts mixed-precision stores accurately. Safe for
// concurrent use.
//
// An entry owns its slice and counts references to it: the cache holds
// one while the entry is listed, and every reader that got the entry from
// get or put holds one until it calls release. Eviction drops the cache's
// reference; whichever release is last hands the slice to pool.PutSlab,
// so the next decode draws it instead of allocating, and no slice goes
// back while a reader still copies out of it.
type lruCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	evicted int64      // bytes dropped to make room, over the cache's life
	order   *list.List // front = most recently used; values are *cacheEntry
	byKey   map[cacheKey]*list.Element
}

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
	return &lruCache{budget: budget, order: list.New(), byKey: map[cacheKey]*list.Element{}}
}

// get returns the cached brick with a reference the caller releases, and
// marks it most recently used.
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
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	ent.refs.Add(1)
	return ent, true
}

// put inserts a decoded brick of the given byte size, evicting
// least-recently-used entries until the budget holds, and returns the new
// entry with a reference for the caller, which gives up ownership of data.
// It returns nil when it does not take data — caching is off, the brick is
// larger than the whole budget, or the key is already cached — and the
// caller keeps it.
func (c *lruCache) put(key cacheKey, data any, bytes int64) *cacheEntry {
	if c == nil || bytes > c.budget {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A concurrent read already cached this brick. It is still the most
		// recently touched entry, so refresh its recency; leaving it in place
		// would let the freshest brick sit at the LRU end and be evicted next.
		c.order.MoveToFront(el)
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

// evictOwner drops every entry owned by one store. A closed store's
// bricks are unreachable (no future get carries its pointer), so leaving
// them in a shared cache would pin dead decoded data — and the dead Store
// itself — against the budget until churn happens to push them out.
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
