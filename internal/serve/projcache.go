package serve

import "sync/atomic"

// projectionBytes estimates a projection's resident size.
func projectionBytes(p Staged) int64 {
	b := int64(structSlack)
	if p.Cands != nil {
		b += candidatesBytes(p.Cands)
	}
	if p.Digest != nil {
		b += digestBytes
	}
	return b + clustersBytes(p.Clusters)
}

// ProjectionCache is a shard server's content-addressed projection store:
// decoded pre-pass payloads (Staged values, their candidates bound to SOME
// structurally identical personal tree — rebind before use) are keyed by
// the projection digest the wire protocol computes
// (shardrpc.ProjectionDigest) and charged, size-estimated, into the
// service's memory governor — so cached projections compete for the same
// -cache-bytes budget as reports. A repeat request shape then ships a
// 32-byte hash instead of the full projection.
//
// Get and Put are safe for concurrent use. Hits/misses are surfaced in
// the service's Stats (ProjectionCacheHits/Misses) and exported as
// bellflower_projection_cache_{hits,misses}_total.
type ProjectionCache struct {
	sp           *cacheSpace
	hits, misses atomic.Int64
}

// projectionCacheSize caps the projection cache's entry count; the byte
// budget is the governor's. Request shapes are few (the router's pre-pass
// cache holds 64), so a matching cap loses nothing.
const projectionCacheSize = 64

// NewProjectionCache registers a projection cache with the service: its
// entries charge the service's memory governor, and its hit/miss counters
// appear in the service's Stats. Meant to be called once, by the shard
// server that owns the service, before serving begins.
func (s *Service) NewProjectionCache() *ProjectionCache {
	pc := &ProjectionCache{sp: s.gov.space(projectionCacheSize)}
	s.projc.Store(pc)
	return pc
}

// Get returns the projection cached under the digest, counting the
// lookup as a hit or miss.
func (p *ProjectionCache) Get(digest string) (Staged, bool) {
	v, ok := p.sp.get(digest)
	if !ok {
		p.misses.Add(1)
		return Staged{}, false
	}
	p.hits.Add(1)
	return v.(Staged), true
}

// Put caches the projection under its digest.
func (p *ProjectionCache) Put(digest string, proj Staged) {
	p.sp.put(digest, proj, projectionBytes(proj))
}

// Len returns the resident entry count.
func (p *ProjectionCache) Len() int { return p.sp.len() }
