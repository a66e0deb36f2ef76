package simd

import "container/list"

// lru is a plain LRU keyed by string, shared by the result cache
// (values are *Result) and the checkpoint cache (values are the
// settled *netspec.WorldCheckpoint of forked campaigns). Values are
// immutable once stored — the engine never mutates a *Result after
// completion and RestoreWorld only reads a checkpoint — so hits can
// hand out the shared value without copying. Not goroutine-safe;
// callers serialise access under their own mutex.
type lru[V any] struct {
	cap     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *lruEntry[V]
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores the value, evicting the least recently used entry when
// the cache is full. A zero or negative capacity disables caching.
func (c *lru[V]) put(key string, val V) {
	if c.cap <= 0 {
		return
	}
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

func (c *lru[V]) len() int { return c.order.Len() }
