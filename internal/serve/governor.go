package serve

import (
	"container/list"
	"sync"

	"bellflower/internal/pipeline"
)

// memGovernor is the unified memory governor behind every cache the serving
// layer keeps: the per-shard report caches and the router's report cache
// of merged reports all charge their finished entries, size-estimated in
// bytes, into one governor. Eviction is size-aware and global — when the
// byte budget is exceeded, the least-recently-used entry across ALL member
// caches goes — so an operator bounds total cache memory with a single
// knob (Config.CacheBytes / -cache-bytes) instead of sizing N+1 caches
// independently. Per-cache entry-count caps (Config.CacheSize) are still
// enforced as secondary limits. Entries never expire: a governor belongs to
// one backend, which serves one immutable repository, and a repository
// swap builds a new backend with a new governor.
//
// A governor is safe for concurrent use. All state is guarded by one
// mutex; member caches (cacheSpace) share the governor's LRU list and
// byte account but keep their own key maps, so identical request
// signatures in different shards never collide.
type memGovernor struct {
	mu       sync.Mutex
	maxBytes int64 // 0 = no byte bound

	used      int64
	order     *list.List // *govEntry; front = most recently used
	evictions int64      // entries evicted for space (bytes or count)
}

// govEntry is one resident cache entry, owned by a cacheSpace and
// accounted by the governor.
type govEntry struct {
	space *cacheSpace
	key   string
	val   any
	bytes int64
}

// cacheSpace is one member cache of a governor: its own key namespace and
// entry-count cap over the shared LRU order and byte budget.
type cacheSpace struct {
	gov   *memGovernor
	cap   int // max entries; <= 0 disables the space entirely
	byKey map[string]*list.Element
	bytes int64 // resident bytes of this space's entries
}

func newGovernor(maxBytes int64) *memGovernor {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &memGovernor{maxBytes: maxBytes, order: list.New()}
}

// space registers a member cache holding up to capacity entries; a
// non-positive capacity disables the space (every get misses, puts are
// dropped), preserving the historical CacheSize < 0 semantics.
func (g *memGovernor) space(capacity int) *cacheSpace {
	return &cacheSpace{gov: g, cap: capacity, byKey: make(map[string]*list.Element)}
}

// snapshot returns the governor-level gauges and counters.
func (g *memGovernor) snapshot() (used, budget, evictions int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used, g.maxBytes, g.evictions
}

// remove unlinks an entry and returns its bytes to the account. Callers
// hold g.mu.
func (g *memGovernor) remove(el *list.Element) {
	e := el.Value.(*govEntry)
	g.order.Remove(el)
	delete(e.space.byKey, e.key)
	g.used -= e.bytes
	e.space.bytes -= e.bytes
}

// enforce evicts until the space's entry cap and the governor's byte
// budget both hold. Count-cap eviction removes the space's own oldest
// entry; byte eviction removes the globally oldest entry regardless of
// which space owns it. Callers hold g.mu.
func (g *memGovernor) enforce(s *cacheSpace) {
	for s.cap > 0 && len(s.byKey) > s.cap {
		for el := g.order.Back(); el != nil; el = el.Prev() {
			if el.Value.(*govEntry).space == s {
				g.remove(el)
				g.evictions++
				break
			}
		}
	}
	for g.maxBytes > 0 && g.used > g.maxBytes {
		el := g.order.Back()
		if el == nil {
			return
		}
		g.remove(el)
		g.evictions++
	}
}

// get returns the entry for key, marking it most recently used.
func (s *cacheSpace) get(key string) (any, bool) {
	if s.cap <= 0 {
		return nil, false
	}
	g := s.gov
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	g.order.MoveToFront(el)
	return el.Value.(*govEntry).val, true
}

// add inserts val under key, charging bytes and evicting as needed, unless
// an entry is resident there; it returns the resident value (val when the
// space is disabled). An entry larger than the whole byte budget is evicted
// at once — oversized values simply don't cache.
func (s *cacheSpace) add(key string, val any, bytes int64) any {
	if s.cap <= 0 {
		return val
	}
	g := s.gov
	g.mu.Lock()
	defer g.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		g.order.MoveToFront(el)
		return el.Value.(*govEntry).val
	}
	e := &govEntry{space: s, key: key, val: val, bytes: bytes}
	s.byKey[key] = g.order.PushFront(e)
	g.used += bytes
	s.bytes += bytes
	g.enforce(s)
	return val
}

// resize re-accounts the entry under key with a new byte size, if it is
// still resident and still holds val.
func (s *cacheSpace) resize(key string, val any, bytes int64) {
	g := s.gov
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return
	}
	e := el.Value.(*govEntry)
	if e.val != val {
		return
	}
	g.used += bytes - e.bytes
	s.bytes += bytes - e.bytes
	e.bytes = bytes
	g.enforce(s)
}

// len returns the space's resident entry count.
func (s *cacheSpace) len() int {
	s.gov.mu.Lock()
	defer s.gov.mu.Unlock()
	return len(s.byKey)
}

// residentBytes returns the space's accounted bytes.
func (s *cacheSpace) residentBytes() int64 {
	s.gov.mu.Lock()
	defer s.gov.mu.Unlock()
	return s.bytes
}

// --- size estimators ---
//
// The estimates cover the dominant growth terms (slices of mappings and
// their images) plus a flat struct overhead; pointer-shared
// schema nodes are NOT charged — they belong to the repository, which the
// governor does not manage. What matters for governance is that the
// accounting is internally consistent: the governor's used figure always
// equals the sum of its resident entries' charges (asserted by tests).

const (
	wordBytes   = 8
	structSlack = 128 // flat per-entry overhead: struct fields + map/list bookkeeping
)

// mappingBytes estimates one ranked mapping's resident size.
func mappingBytes(images, sims int) int64 {
	return int64(images)*wordBytes + int64(sims)*wordBytes + 64
}

// reportBytes estimates a completed report's resident size.
func reportBytes(rep *pipeline.Report) int64 {
	b := int64(structSlack)
	b += int64(len(rep.ClusterSizes)) * wordBytes
	for i := range rep.Mappings {
		b += mappingBytes(len(rep.Mappings[i].Images), len(rep.Mappings[i].Sims))
	}
	for i := range rep.Partials {
		b += mappingBytes(len(rep.Partials[i].Images), len(rep.Partials[i].Sims))
	}
	for i := range rep.ShardErrors {
		b += int64(len(rep.ShardErrors[i].Err)) + 24
	}
	return b
}
