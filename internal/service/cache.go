package service

import (
	"container/list"
	"sync"

	"distlouvain/internal/core"
)

// resultKey identifies a Louvain result completely: the distributed run is
// deterministic given the graph bytes and the trajectory-determining
// configuration, independent of rank count, thread count and wire format
// (the elastic-resume bit-identity tests pin exactly that). Two submissions
// with the same key therefore MUST produce the same assignment — which is
// what makes serving the second one from cache sound, even when it asks for
// a different world size.
type resultKey struct {
	Graph  core.Fingerprint
	Config core.Fingerprint
}

// cachedResult is one completed result, assignment and certificate
// included, retained for duplicate submissions.
type cachedResult struct {
	Result
	SourceJob string // job that computed it (reported on cache hits)
}

// resultCache is a bounded LRU of completed results. Entries hold full
// assignments, so the bound is entry-count, sized by the operator for the
// expected graph sizes. In-memory only: after a daemon restart the cache is
// re-warmed from the persisted results of retained job directories.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[resultKey]*list.Element
}

type cacheItem struct {
	key resultKey
	val *cachedResult
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{cap: capacity, ll: list.New(), m: make(map[resultKey]*list.Element)}
}

// get returns the cached result for the key, refreshing its recency.
func (c *resultCache) get(key resultKey) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put inserts (or refreshes) a result, evicting the least recently used
// entry past capacity.
func (c *resultCache) put(key resultKey, val *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheItem).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheItem).key)
	}
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
