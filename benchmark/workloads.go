package main

import (
	"bytes"
	"fmt"
)

// Request-list shapes. The names of the workloads are fixed; later issues
// cite them. The sizes are what makes a 20 s window on two cores steady
// from seed to seed: a window touches about 2,400 cold-topn requests, and
// the more distinct requests it averages over, the less one seed's draw
// of expensive ones moves the mean.
const (
	coldDistinct  = 2048 // distinct requests of the cold-* lists
	coldWarmup    = 200  // cold-* requests sent before the window opens
	batchDistinct = 128  // distinct requests of warm-batch (fits the 256-entry report cache)
	batchEntries  = 64   // entries per /v1/match/batch body
	batchWarmup   = 20   // warm-batch bodies sent before the window opens
	hotSet        = 32   // dist2-mixed requests that repeat at any one time (fits the router's 64-entry pre-pass cache)
	hotSize       = 5    // nodes of a hot request: the middle of the cold range
	hotSets       = 32   // hot sets generated; the window moves to the next one every mixedEpoch ops
	mixedEpoch    = 1024 // dist2-mixed ops between hot-set changes
	mixedCold     = 2048 // dist2-mixed requests that never repeat inside a window
	mixedPeriod   = 4    // every mixedPeriod-th dist2-mixed op is cold
	tracedSlice   = 256  // requests of each list the in-process traced run covers
)

// topology says which daemons a workload runs against.
type topology int

const (
	topoSingleNoCache topology = iota // one daemon, -cache -1
	topoSingleCached                  // one daemon, default report cache
	topoDist2                         // router + two -shard-of k/2 daemons, default caches
)

// op is one HTTP call of a workload: a /v1/match body carrying one request,
// or a /v1/match/batch body carrying several. reqs indexes the workload's
// request list.
type op struct {
	path string
	body []byte
	reqs []int
}

// workload is a fixed, seed-generated sequence of ops against one topology.
type workload struct {
	name     string
	topo     topology
	requests []request
	warmup   []op
	opAt     func(i int) op // i-th op of the measured window
	traced   []int          // requests the in-process traced run covers
}

var workloadNames = []string{"cold-topn", "cold-enumerate", "warm-batch", "dist2-mixed"}

var workloadWhy = map[string]string{
	"cold-topn":      "adaptive top-N on distinct requests with the cache off: every request runs the pipeline, clustering does most of the work",
	"cold-enumerate": "non-adaptive top-N on distinct small requests with the cache off: mapping generation enumerates exhaustively, heavy-tailed",
	"warm-batch":     "batches of repeated requests against a warm report cache: only HTTP, parsing, signature and LRU work, no pipeline",
	"dist2-mixed":    "router plus two shard daemons, three repeated requests to one new one: the only path through Router and shardrpc",
}

// newWorkload generates the named workload's request list from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name}
	switch name {
	case "cold-topn", "cold-enumerate":
		w.topo = topoSingleNoCache
		kMin, kMax, opts := 3, 7, optsTopN
		if name == "cold-enumerate" {
			// k ≤ 4 keeps one enumeration in the low millions of partial
			// mappings; k = 5 enumerates ~3 M complete mappings per request.
			kMin, kMax, opts = 2, 4, optsEnumerate
		}
		if w.requests, err = g.take(coldDistinct, kMin, kMax, opts); err != nil {
			return nil, err
		}
		ops := singleOps(w.requests)
		w.warmup = ops[:coldWarmup]
		w.opAt = func(i int) op { return ops[(coldWarmup+i)%len(ops)] }
		w.traced = firstN(tracedSlice)
	case "warm-batch":
		w.topo = topoSingleCached
		if w.requests, err = g.take(batchDistinct, 3, 7, optsTopN); err != nil {
			return nil, err
		}
		var ops []op
		for lo := 0; lo < len(w.requests); lo += batchEntries {
			o := op{path: "/v1/match/batch"}
			var b bytes.Buffer
			b.WriteString(`{"requests":[`)
			for i := lo; i < lo+batchEntries; i++ {
				if i > lo {
					b.WriteByte(',')
				}
				b.Write(w.requests[i].body())
				o.reqs = append(o.reqs, i)
			}
			b.WriteString(`]}`)
			o.body = b.Bytes()
			ops = append(ops, o)
		}
		for i := 0; i < batchWarmup; i++ {
			w.warmup = append(w.warmup, ops[i%len(ops)])
		}
		w.opAt = func(i int) op { return ops[i%len(ops)] }
		w.traced = firstN(batchDistinct)
	case "dist2-mixed":
		w.topo = topoDist2
		// Hot requests come first in the list, hot set after hot set, then
		// the cold ones. Hot requests all have hotSize nodes: the median
		// latency of the window sits among them, and with mixed sizes it
		// followed each seed's draw of 32 requests (±20%) instead of the
		// program.
		hot, err := g.take(hotSet*hotSets, hotSize, hotSize, optsTopN)
		if err != nil {
			return nil, err
		}
		cold, err := g.take(mixedCold, 3, 7, optsTopN)
		if err != nil {
			return nil, err
		}
		w.requests = append(hot, cold...)
		ops := singleOps(w.requests)
		w.warmup = ops[:hotSet]
		w.opAt = func(i int) op { return ops[mixedIndex(i)] }
		// The first hot set, then cold requests.
		w.traced = firstN(hotSet)
		for i := 0; len(w.traced) < tracedSlice; i++ {
			w.traced = append(w.traced, hotSet*hotSets+i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// singleOps renders one /v1/match op per request.
func singleOps(reqs []request) []op {
	ops := make([]op, len(reqs))
	for i, r := range reqs {
		ops[i] = op{path: "/v1/match", body: r.body(), reqs: []int{i}}
	}
	return ops
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mixedIndex maps the i-th dist2-mixed op to its request: three hot
// requests cycling the current hot set, then the next cold one. The hot
// set changes every mixedEpoch ops, so that a window's median latency
// averages over several hot sets; the first pass over a new set misses the
// caches (≈4% of the hot ops).
func mixedIndex(i int) int {
	if i%mixedPeriod == mixedPeriod-1 {
		return hotSet*hotSets + (i/mixedPeriod)%mixedCold
	}
	set := (i / mixedEpoch) % hotSets
	j := i % mixedEpoch
	hotsBefore := j - j/mixedPeriod // hot ops of this epoch before this one
	return set*hotSet + hotsBefore%hotSet
}

// mixedIsHot reports whether request idx of the dist2-mixed list belongs to
// a hot set.
func mixedIsHot(idx int) bool { return idx < hotSet*hotSets }
