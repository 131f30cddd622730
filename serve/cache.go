package serve

// The prepared-fault-context cache. Fault-set preparation (decoder Steps
// 1–3: label assembly, component trees, sketch cancellation, per-scale
// restrictions) is the expensive half of a batch query; the serving
// pattern repeats many requests against few concurrently-active fault
// sets, so a bounded LRU keyed by the canonical fault set lets repeated
// requests skip preparation entirely. Preparation runs outside the cache
// lock, once per entry: concurrent requests for the same fault set share
// one preparation (and one slot) while distinct fault sets prepare
// concurrently.

import (
	"container/list"
	"strconv"
	"sync"

	"ftrouting"
	"ftrouting/serve/api"
)

// faultKey renders a canonical fault list (distinct ids, ascending) as a
// unique map key.
func faultKey(canon []ftrouting.EdgeID) string { return string(appendFaultKey(nil, canon)) }

// appendFaultKey appends faultKey(canon) to dst.
func appendFaultKey(dst []byte, canon []ftrouting.EdgeID) []byte {
	for i, id := range canon {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// cacheEntry is one prepared (or in-flight) fault context. The entry
// owns its preparation via once, so eviction never interrupts a waiter:
// a goroutine holding the entry completes and uses it even after the
// entry leaves the table.
type cacheEntry struct {
	key  string
	once sync.Once
	ctx  any
	err  error
}

// contextCache is the bounded LRU. A capacity <= 0 disables caching
// (every lookup prepares fresh and counts as a miss).
type contextCache struct {
	capacity int

	mu        sync.Mutex
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

func newContextCache(capacity int) *contextCache {
	return &contextCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// get returns the prepared context stored under key, running prep at
// most once per cached entry, and reports whether the lookup hit. The
// key must determine the prepared context (a server keys by the shard's
// canonical fault restriction plus the global distinct-fault count the
// restriction cannot see). Exactly one of the hit/miss
// counters advances per call, matching the returned flag; an errored
// lookup counts (and reports) a miss even when it joined another
// caller's in-flight preparation, since it handed out no context.
func (c *contextCache) get(key string, prep func() (any, error)) (any, bool, error) {
	if c.capacity <= 0 {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		ctx, err := prep()
		return ctx, false, err
	}
	c.mu.Lock()
	var e *cacheEntry
	var hit bool
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		hit = true
		e = el.Value.(*cacheEntry)
	} else {
		c.misses++
		e = &cacheEntry{key: key}
		c.entries[key] = c.order.PushFront(e)
		for c.order.Len() > c.capacity {
			back := c.order.Back()
			c.order.Remove(back)
			delete(c.entries, back.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.ctx, e.err = prep() })
	if e.err != nil {
		// A failed preparation (invalid fault set) is cheap to redo and
		// not worth a slot; drop it so capacity stays for working
		// contexts. Same-key retries fail identically either way. The
		// entry is deleted only if it still occupies its slot (a
		// concurrent eviction plus re-insertion must not lose the newer
		// entry). A goroutine that joined the in-flight preparation was
		// counted a hit on lookup, but it received no usable context —
		// reclassify it as a miss so the counters (and the obs layer's
		// per-request hit flag) never report a cache hit for a request
		// that errored.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		if hit {
			c.hits--
			c.misses++
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.ctx, hit, nil
}

// stats snapshots the counters.
func (c *contextCache) stats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheStats{
		Capacity:  c.capacity,
		Size:      c.order.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
