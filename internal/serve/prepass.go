package serve

import (
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/matcher"
)

// prepassCacheSize bounds the router's candidate pre-pass cache by entry
// count (a secondary limit under the unified byte budget). Candidate sets
// and clusters are small relative to the repository (post-threshold pairs
// only), and unlike reports they are kept per pre-pass signature — schema
// + matcher + MinSim + clustering options — so a handful of active
// personal schemas covers most traffic.
const prepassCacheSize = 64

// prepassEntry is one full-repository pre-pass result — the candidate set
// and the clusters built from it. Concurrent requests for one pre-pass
// signature share one matching+clustering run through the router's flight
// group; only a finished, successful entry enters the cache.
type prepassEntry struct {
	cands      *matcher.Candidates
	clusters   []*cluster.Cluster
	iterations int
	matchDur   time.Duration
	clusterDur time.Duration
}
