package serve

import (
	"sync/atomic"
	"time"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
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
//
// An entry with a rendering may also carry aliases: the raw bytes of
// requests it answered (aliasRaw), so that a byte-identical repeat finds the
// rendering without being decoded (serveRaw). Aliases are charged to their
// entry and leave with it; a hot reload drops them with the old backend's
// cache.
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
	c.space.grow(key, cr, int64(len(body)))
	return body
}

// serveRaw is a backend's CachedJSON over c. Unless the backend is closed,
// it sets bodies[i] to the rendering aliased to raws[i], for every i; only
// when all of them are found does it count len(raws) hits — in lat, each at
// the average lookup time, and in each of counts — and report true. The
// renderings are shared and read-only. A disabled cache finds nothing and
// hashes nothing.
func (c *reportCache) serveRaw(closed bool, raws, bodies [][]byte, lat *histogram, counts ...*atomic.Int64) bool {
	if closed || len(raws) == 0 || c.space.cap <= 0 {
		return false
	}
	start := time.Now()
	for i, raw := range raws {
		v, ok := c.space.getAlias(raw)
		if !ok {
			return false
		}
		bodies[i] = *v.(*cachedReport).body.Load()
	}
	n := int64(len(raws))
	lat.observeN(time.Since(start)/time.Duration(n), n)
	for _, ct := range counts {
		ct.Add(n)
	}
	return true
}

// rendering returns the rendering of rep, the report match found under hit:
// the one resident in its entry, or one rendered now and attached. raw, when
// not nil, is recorded as the entry's alias (aliasRaw).
func (c *reportCache) rendering(hit cacheRef, personal *schema.Tree, rep *pipeline.Report, raw []byte) []byte {
	body := hit.body
	if body == nil {
		// An uncached report has no key, so Attach hands its rendering back
		// and aliasRaw records nothing.
		body = c.Attach(hit.key, rep, renderBody(personal, rep))
	}
	if raw != nil {
		c.aliasRaw(hit.key, rep, raw)
	}
	return body
}

// aliasRaw records raw — the bytes a request was decoded from — as an alias of
// the entry under key, provided the entry still holds rep and a rendering
// of it; serveRaw then answers a byte-identical request with that rendering.
func (c *reportCache) aliasRaw(key string, rep *pipeline.Report, raw []byte) {
	v, ok := c.space.get(key)
	if !ok {
		return
	}
	if cr := v.(*cachedReport); cr.rep == rep && cr.body.Load() != nil {
		c.space.addAlias(key, cr, raw)
	}
}

func (c *reportCache) Len() int { return c.space.len() }

func (c *reportCache) Cap() int { return c.space.cap }

// Bytes returns the cache's resident accounted bytes: reports, attached
// renderings and aliases.
func (c *reportCache) Bytes() int64 { return c.space.residentBytes() }
