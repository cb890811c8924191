package bmmc

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/factor"
)

// planCacheEntries is the capacity of every Engine's plan cache, in plans.
const planCacheEntries = 64

// cachedPlan is what factor.Dispatch decided for a permutation: the
// dispatched class and the execution plan — the (possibly fused) factoring
// for ClassBMMC, a synthesized single pass for the one-pass classes, nil
// only for the identity. Caching one-pass classes still saves the
// classification work, which includes a full GF(2) matrix inversion for
// the inverse-MLD check.
type cachedPlan struct {
	class Class
	plan  *factor.Plan // nil only for the identity
}

// planCache is an LRU cache of planning results keyed by the binary
// encoding of the permutation plus the machine geometry and the fusion
// setting. Cached values are immutable once built, so they are shared
// freely across Plan calls; the cache only saves planning work
// (classification and Gaussian elimination over GF(2)), never changes
// what a plan computes.
type planCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // value: *planEntry
	stats CacheStats
}

type planEntry struct {
	key  string
	plan *cachedPlan
}

// CacheStats reports an Engine's plan-cache hits, misses, and evictions
// (see Engine.CacheStats): every miss corresponds to one planning pass
// (classification, plus factorization and fusion for factored
// permutations); every hit is a Plan (or Permute) call that skipped
// planning entirely.
type CacheStats struct {
	Hits      int // plans served without re-factorizing
	Misses    int // plans computed and inserted
	Evictions int // plans dropped by the LRU policy
	Size      int // plans currently held
	Capacity  int // plans the cache holds at most
}

func (s CacheStats) String() string {
	return fmt.Sprintf("plan cache: %d/%d entries, %d hits, %d misses, %d evictions",
		s.Size, s.Capacity, s.Hits, s.Misses, s.Evictions)
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
		stats: CacheStats{Capacity: capacity},
	}
}

// planKey identifies a factorization input: the marshaled (A, c) — which
// encodes n — plus lg B and lg M (the only geometry parameters Factorize
// reads) and whether fusion is applied. The encoding is compact binary
// (one byte of geometry each, eight bytes per row) so keying a lookup
// costs far less than the factorization it saves.
func planKey(p Permutation, cfg Config, fuse bool) string {
	n := p.Bits()
	buf := make([]byte, 0, 8*(n+1)+4)
	f := byte(0)
	if fuse {
		f = 1
	}
	buf = append(buf, byte(cfg.LgB()), byte(cfg.LgM()), byte(n), f)
	buf = appendVec(buf, uint64(p.C))
	for i := 0; i < n; i++ {
		buf = appendVec(buf, uint64(p.A.Row(i)))
	}
	return string(buf)
}

func appendVec(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// get returns the cached planning result for key, or nil (always nil on a
// nil cache).
func (c *planCache) get(key string) *cachedPlan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan
}

// put inserts a planning result computed after a get miss, evicting the
// least recently used entry when over capacity.
func (c *planCache) put(key string, plan *cachedPlan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*planEntry).plan = plan
		return
	}
	c.byKey[key] = c.order.PushFront(&planEntry{key: key, plan: plan})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*planEntry).key)
		c.stats.Evictions++
	}
}

// snapshot returns the current statistics.
func (c *planCache) snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.order.Len()
	return s
}
