package serve

import (
	"sync/atomic"

	"bellflower/internal/pipeline"
)

// reportCache is one backend's completed-report cache, keyed by request
// signature: a Service's reports, or a Router's merged ones. It is a member
// space of the unified memory governor, so its entries compete for the
// shared byte budget with every other cache of the same router. Cached
// reports are shared between callers and must be treated as immutable.
//
// An entry is the report plus, once some request has asked for it, the
// report's HTTP rendering (AppendReportJSON): one key, one LRU position and
// one governor charge for both, so eviction releases them together. The
// first report cached under a key stays until it is evicted.
type reportCache struct {
	space *cacheSpace
}

// cachedReport is the value behind one report-cache key. body is nil until
// the first rendering is attached and never changes afterwards.
type cachedReport struct {
	rep  *pipeline.Report
	body atomic.Pointer[[]byte]
}

// newReportCache registers a report space holding up to capacity entries
// with the governor; a non-positive capacity disables caching (every Get
// misses).
func newReportCache(gov *memGovernor, capacity int) *reportCache {
	return &reportCache{space: gov.space(capacity)}
}

// Get returns the report cached under key and its rendering, nil while none
// has been attached.
func (c *reportCache) Get(key string) (rep *pipeline.Report, body []byte, ok bool) {
	v, ok := c.space.get(key)
	if !ok {
		return nil, nil, false
	}
	cr := v.(*cachedReport)
	if b := cr.body.Load(); b != nil {
		body = *b
	}
	return cr.rep, body, true
}

// Add caches rep under key unless an entry is resident there, and returns
// the resident report and rendering (nil until attached): identical
// requests that missed together answer with the first one cached.
func (c *reportCache) Add(key string, rep *pipeline.Report) (*pipeline.Report, []byte) {
	cr := c.space.add(key, &cachedReport{rep: rep}, reportBytes(rep)).(*cachedReport)
	if b := cr.body.Load(); b != nil {
		return cr.rep, *b
	}
	return cr.rep, nil
}

// Attach stores body as the rendering of the entry under key and charges it
// to the governor, provided the entry is still resident and still holds rep
// — an entry evicted or replaced since rep was read stays as it is. The
// first rendering attached wins; Attach returns the one callers should
// serve (the resident one when there is one, else body).
func (c *reportCache) Attach(key string, rep *pipeline.Report, body []byte) []byte {
	v, ok := c.space.get(key)
	if !ok {
		return body
	}
	cr := v.(*cachedReport)
	if cr.rep != rep {
		return body
	}
	if !cr.body.CompareAndSwap(nil, &body) {
		return *cr.body.Load()
	}
	c.space.resize(key, cr, reportBytes(rep)+int64(len(body)))
	return body
}

func (c *reportCache) Len() int { return c.space.len() }

func (c *reportCache) Cap() int { return c.space.cap }

// Bytes returns the cache's resident accounted bytes: reports and attached
// renderings.
func (c *reportCache) Bytes() int64 { return c.space.residentBytes() }
