package simd

import (
	"container/list"
	"sync"
)

// lru is a goroutine-safe LRU keyed by string that counts its own hits
// and misses, shared by the result cache (values are *Result) and the
// checkpoint cache (values are the settled *netspec.WorldCheckpoint of
// forked campaigns). Values are immutable once stored — the engine
// never mutates a *Result after completion and RestoreWorld only reads
// a checkpoint — so hits can hand out the shared value without copying.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *lruEntry[V]
	hits    uint64
	misses  uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached value, marks it most recently used and counts
// the lookup as a hit or a miss.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores the value, evicting the least recently used entry when
// the cache is full. A zero or negative capacity disables caching.
func (c *lru[V]) put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// stats snapshots the cache's accounting for GET /v1/stats.
func (c *lru[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Capacity: c.cap}
}
