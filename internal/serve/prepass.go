package serve

import "time"

// prepassCacheSize bounds the router's candidate pre-pass cache by entry
// count (a secondary limit under the unified byte budget). Candidate sets
// and clusters are small relative to the repository (post-threshold pairs
// only), and unlike reports they are kept per pre-pass signature — schema
// + matcher + MinSim + clustering options — so a handful of active
// personal schemas covers most traffic.
const prepassCacheSize = 64

// prepassEntry is one full-repository pre-pass result, already projected:
// per shard, the candidates on its trees and the clusters that live there.
// The shards partition the candidates, so the entry holds what the full
// candidate set and cluster list would. Concurrent
// requests for one pre-pass signature share one matching+clustering run
// through the router's flight group; only a finished, successful entry
// enters the cache.
type prepassEntry struct {
	shards     []Staged
	matchDur   time.Duration
	clusterDur time.Duration
}
