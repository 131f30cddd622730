package serve

// The resident-shard cache of a sharded server: level one of the
// two-level caching a sharded `ftroute serve` router runs. Shards load lazily
// on first touch and are evicted least-recently-used when the resident
// bytes (measured as shard file size, the manifest's recorded cost)
// exceed the budget; each resident shard owns a level-two contextCache
// of prepared fault contexts, which dies with it. Requests pin the
// shards they are answering from, so eviction never frees a shard
// mid-batch — a pinned shard is skipped and the cache may transiently
// exceed its budget rather than stall traffic.

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"ftrouting"
	"ftrouting/internal/blob"
	"ftrouting/internal/obs"
	"ftrouting/serve/api"
)

// shardEntry is one resident (or loading) shard. Loading runs outside
// the cache lock, once per entry; concurrent requests for the same shard
// share the load. A goroutine holding the entry keeps using it after
// eviction (the entry leaves the table, not the holder's hands).
type shardEntry struct {
	id    int
	bytes int64
	once  sync.Once
	shard *ftrouting.Shard
	err   error
	// contexts is the shard's prepared-fault-context LRU (level two).
	contexts *contextCache
	// pins counts in-flight requests answering from this shard; guarded
	// by the cache mutex.
	pins int
}

// shardCounters accumulates one shard id's lifetime statistics across
// loads and evictions (the /v1/stats per-shard rows).
type shardCounters struct {
	loads, evictions               uint64
	ctxHits, ctxMisses, ctxEvicted uint64
}

// shardCache is the bounded resident-shard set. A budget < 0 disables
// eviction (every touched shard stays resident).
type shardCache struct {
	m      *ftrouting.Manifest
	store  blob.Store
	budget int64
	ctxCap int

	// Optional instruments (nil-safe, set at server construction): shard
	// load latency, resident bytes, evictions, and the store's fetch
	// latency/retry/failure trio.
	loadTime      *obs.Histogram
	residentGauge *obs.Gauge
	evictedCtr    *obs.Counter
	fetchTime     *obs.Histogram
	retryCtr      *obs.Counter
	failCtr       *obs.Counter

	// Store fetch counters for /v1/stats, fed by observeFetch from the
	// store's own goroutines (hence atomic, not mu).
	fetches, fetchRetries, fetchFailures atomic.Uint64

	mu        sync.Mutex
	entries   map[int]*list.Element
	order     *list.List // front = most recently used
	resident  int64      // bytes of entries in the table
	loads     uint64
	evictions uint64
	counters  map[int]*shardCounters
}

// newShardCache builds the cache over the given blob store (nil selects
// the manifest's own).
func newShardCache(m *ftrouting.Manifest, store blob.Store, budget int64, ctxCap int) *shardCache {
	if store == nil {
		store = m.Store()
	}
	return &shardCache{
		m:        m,
		store:    store,
		budget:   budget,
		ctxCap:   ctxCap,
		entries:  make(map[int]*list.Element),
		order:    list.New(),
		counters: make(map[int]*shardCounters),
	}
}

// observeFetch folds the store's fetch events into the stats counters
// and the obs instruments. Installed on Observable stores only, so
// local-directory serving reports no fetch traffic.
func (c *shardCache) observeFetch(ev blob.Event) {
	switch ev.Kind {
	case blob.EventRetry:
		c.fetchRetries.Add(1)
		c.retryCtr.Inc()
	case blob.EventFetch:
		if ev.Err != nil {
			c.fetchFailures.Add(1)
			c.failCtr.Inc()
			return
		}
		c.fetches.Add(1)
		c.fetchTime.Observe(ev.Duration)
	}
}

// counter returns the persistent counters of a shard id (callers hold mu).
func (c *shardCache) counter(id int) *shardCounters {
	s := c.counters[id]
	if s == nil {
		s = &shardCounters{}
		c.counters[id] = s
	}
	return s
}

// acquireAll returns the entries of the given shards, loading absent
// ones, all pinned against eviction — one lock round for the whole
// batch. On error every pin taken is returned. Callers must releaseAll
// when the request finishes.
func (c *shardCache) acquireAll(ids []int) ([]*shardEntry, error) {
	out := make([]*shardEntry, 0, len(ids))
	c.mu.Lock()
	for _, id := range ids {
		var e *shardEntry
		if el, ok := c.entries[id]; ok {
			c.order.MoveToFront(el)
			e = el.Value.(*shardEntry)
			e.pins++
		} else {
			e = &shardEntry{id: id, bytes: c.m.ShardBytes(id), contexts: newContextCache(c.ctxCap), pins: 1}
			c.entries[id] = c.order.PushFront(e)
			c.resident += e.bytes
			c.residentGauge.Set(c.resident)
			c.loads++
			c.counter(id).loads++
		}
		out = append(out, e)
	}
	c.evictOver()
	c.mu.Unlock()
	// Load outside the lock, once per entry; concurrent requests for the
	// same shard share one load. Every entry's load runs even after an
	// earlier one fails, so no entry this call inserted is ever left in
	// the table unloaded (a never-loaded entry would sit there counted as
	// resident bytes with nothing behind it).
	var firstErr error
	for _, e := range out {
		e := e
		e.once.Do(func() {
			start := time.Now()
			e.shard, e.err = c.m.LoadShardFrom(c.store, e.id)
			if e.err == nil {
				c.loadTime.Observe(time.Since(start))
			}
		})
		if e.err != nil && firstErr == nil {
			firstErr = e.err
		}
	}
	if firstErr != nil {
		// Failed loads hold no slot: drop them so a repaired shard file can
		// load on retry, then undo every pin of this call.
		c.mu.Lock()
		for _, e := range out {
			if e.err != nil {
				c.removeLocked(e.id, e, false)
			}
			e.pins--
		}
		c.evictOver()
		c.mu.Unlock()
		return nil, firstErr
	}
	return out, nil
}

// releaseAll unpins entries acquired by acquireAll.
func (c *shardCache) releaseAll(entries []*shardEntry) {
	c.mu.Lock()
	for _, e := range entries {
		e.pins--
	}
	c.evictOver()
	c.mu.Unlock()
}

// evictOver evicts least-recently-used unpinned shards until the
// resident bytes fit the budget (callers hold mu). Pinned shards are
// skipped: a batch in flight keeps its shards, and the budget is a
// target the cache returns to, not a hard ceiling.
func (c *shardCache) evictOver() {
	if c.budget < 0 {
		return
	}
	for el := c.order.Back(); el != nil && c.resident > c.budget; {
		prev := el.Prev()
		e := el.Value.(*shardEntry)
		if e.pins == 0 {
			c.removeLocked(e.id, e, true)
		}
		el = prev
	}
}

// removeLocked drops an entry iff it still occupies its slot, folding its
// context-cache counters into the persistent per-shard statistics.
func (c *shardCache) removeLocked(id int, e *shardEntry, evicted bool) {
	el, ok := c.entries[id]
	if !ok || el.Value.(*shardEntry) != e {
		return
	}
	c.order.Remove(el)
	delete(c.entries, id)
	c.resident -= e.bytes
	c.residentGauge.Set(c.resident)
	if evicted {
		c.evictions++
		c.counter(id).evictions++
		c.evictedCtr.Inc()
	}
	cs := e.contexts.stats()
	pc := c.counter(id)
	pc.ctxHits += cs.Hits
	pc.ctxMisses += cs.Misses
	pc.ctxEvicted += cs.Evictions
}

// stats snapshots the cache: global totals plus one row per shard of the
// manifest (resident or not).
func (c *shardCache) stats() api.ShardCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := api.ShardCacheStats{
		BudgetBytes:   c.budget,
		ResidentBytes: c.resident,
		TotalShards:   c.m.NumShards(),
		Loads:         c.loads,
		Evictions:     c.evictions,
		Fetches:       c.fetches.Load(),
		FetchRetries:  c.fetchRetries.Load(),
		FetchFailures: c.fetchFailures.Load(),
	}
	live := make(map[int]*shardEntry, len(c.entries))
	for id, el := range c.entries {
		live[id] = el.Value.(*shardEntry)
	}
	out.ResidentShards = len(live)
	for id := 0; id < c.m.NumShards(); id++ {
		row := api.ShardEntryStats{ID: id, Bytes: c.m.ShardBytes(id)}
		if pc := c.counters[id]; pc != nil {
			row.Loads = pc.loads
			row.Evictions = pc.evictions
			row.ContextHits = pc.ctxHits
			row.ContextMisses = pc.ctxMisses
			row.ContextEvictions = pc.ctxEvicted
		}
		if e, ok := live[id]; ok {
			row.Resident = true
			cs := e.contexts.stats()
			row.ContextHits += cs.Hits
			row.ContextMisses += cs.Misses
			row.ContextEvictions += cs.Evictions
			row.Contexts = cs.Size
		}
		out.Shards = append(out.Shards, row)
	}
	return out
}

// aggregateContextStats folds every shard's context-cache counters into
// one CacheStats so the /v1/stats "cache" block keeps meaning "prepared
// fault contexts" for sharded servers too.
func (c *shardCache) aggregateContextStats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := api.CacheStats{Capacity: c.ctxCap}
	for _, pc := range c.counters {
		agg.Hits += pc.ctxHits
		agg.Misses += pc.ctxMisses
		agg.Evictions += pc.ctxEvicted
	}
	for _, el := range c.entries {
		cs := el.Value.(*shardEntry).contexts.stats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Evictions += cs.Evictions
		agg.Size += cs.Size
	}
	return agg
}
