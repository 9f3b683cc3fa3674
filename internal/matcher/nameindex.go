package matcher

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

// NameIndex interns every distinct (name, datatype) key of a repository and
// caches the key's prepared similarity inputs (folded form, token list,
// trigram set, bigram vector) plus the ASCII folds the synonym and datatype
// matchers use. It is computed once per repository generation — alongside
// labeling.Index — and shared by every runner, view and shard over that
// repository, so shards pay no extra memory for it.
//
// Repository vocabularies are tiny relative to node counts (the same element
// names recur across trees), which is what makes the keyed kernel's
// vocabulary dedup pay: scoring one personal node costs O(|vocab|)
// similarity calls instead of O(|nodes|). The index also owns the score-row
// memo (rowMemo), so rows are shared by the same runners and views and die
// with the repository generation.
type NameIndex struct {
	repo  *schema.Repository
	keyOf []int32 // node ID -> index into keys
	keys  []nameKey
	bytes int64 // of the interned vocabulary; the memo accounts for itself
	memo  rowMemo

	// Kernel effectiveness counters, accumulated by Vocabulary.FindCandidates.
	simCalls   atomic.Int64
	savedCalls atomic.Int64
	pruneHits  atomic.Int64
	fallbacks  atomic.Int64
}

// nameKey is one interned (name, datatype) key with its precomputed scoring
// inputs.
type nameKey struct {
	name    string
	typ     string
	prep    strsim.Prepared
	synFold string       // ASCII fold of name (SynonymMatcher's fold)
	typFold string       // ASCII fold of typ (TypeMatcher's fold)
	rep     *schema.Node // first node carrying this key; representative for opaque local matchers
}

// NewNameIndex interns the repository's (name, datatype) vocabulary.
func NewNameIndex(repo *schema.Repository) *NameIndex {
	n := repo.Len()
	ni := &NameIndex{repo: repo, keyOf: make([]int32, n)}
	type pair struct{ name, typ string }
	seen := make(map[pair]int32, n/2)
	for id := 0; id < n; id++ {
		node := repo.Node(id)
		k := pair{node.Name, node.Type}
		ki, ok := seen[k]
		if !ok {
			ki = int32(len(ni.keys))
			seen[k] = ki
			ni.keys = append(ni.keys, nameKey{
				name:    node.Name,
				typ:     node.Type,
				prep:    strsim.Prepare(node.Name),
				synFold: fold(node.Name),
				typFold: fold(node.Type),
				rep:     node,
			})
		}
		ni.keyOf[id] = ki
	}
	b := int64(4 * len(ni.keyOf))
	for i := range ni.keys {
		k := &ni.keys[i]
		b += 120 + int64(len(k.name)+len(k.typ)+len(k.synFold)+len(k.typFold)) + k.prep.MemoryBytes()
	}
	ni.bytes = b
	return ni
}

// DistinctRatio returns distinct (name, datatype) keys over covered nodes —
// the fraction of the node universe that is distinct vocabulary. The keyed
// kernel's dedup win is its inverse.
func (ni *NameIndex) DistinctRatio() float64 {
	if len(ni.keyOf) == 0 {
		return 0
	}
	return float64(len(ni.keys)) / float64(len(ni.keyOf))
}

// MemoryBytes estimates the resident size of the index, memoised rows
// included.
func (ni *NameIndex) MemoryBytes() int64 {
	_, _, memo := ni.memo.snapshot()
	return ni.bytes + memo
}

// KernelStats is a snapshot of the keyed kernel's effectiveness counters.
type KernelStats struct {
	// SimCalls is the number of similarity evaluations the keyed kernel
	// performed.
	SimCalls int64
	// SavedCalls is the number of evaluations vocabulary dedup avoided
	// relative to the naive kernel (|nodes| − |vocab| per personal node).
	SavedCalls int64
	// PruneHits is the number of OSA evaluations the length-difference
	// bound skipped.
	PruneHits int64
	// NaiveFallbacks is the number of kernel invocations that fell back to
	// the naive reference loop (non-local matcher or foreign universe).
	NaiveFallbacks int64
	// MemoHits and MemoMisses count personal nodes whose score row was found
	// in, or looked up and missing from, the row memo; a hit adds nothing to
	// the counters above. MemoBytes is the memo's bounded resident size.
	MemoHits, MemoMisses, MemoBytes int64
}

// KernelStats returns a snapshot of the kernel counters.
func (ni *NameIndex) KernelStats() KernelStats {
	ks := KernelStats{
		SimCalls:       ni.simCalls.Load(),
		SavedCalls:     ni.savedCalls.Load(),
		PruneHits:      ni.pruneHits.Load(),
		NaiveFallbacks: ni.fallbacks.Load(),
	}
	ks.MemoHits, ks.MemoMisses, ks.MemoBytes = ni.memo.snapshot()
	return ks
}

// rowEntry is one index key scoring above MinSim for some personal node.
type rowEntry struct {
	sim float64
	key int32 // index into NameIndex.keys
}

// rowKey identifies a memoised score row: the personal property the matcher
// reads, the matcher's value and MinSim. Only matchers whose value is their
// whole scoring function get one (memoKey); every field is comparable.
type rowKey struct {
	name, typ string      // NameMatcher reads only the name, TypeMatcher only the type
	nm        NameMatcher // zero for TypeMatcher
	isType    bool
	minSim    float64
}

// memoKey returns the memo key of p's row under m, or false for a matcher the
// memo does not hold: *SynonymMatcher and *Combined are identified by pointer
// (built per request, it would never recur), and a foreign PropertyLocal
// matcher may not even be hashable.
func memoKey(m Matcher, p *schema.Node, minSim float64) (rowKey, bool) {
	switch mm := m.(type) {
	case NameMatcher:
		return rowKey{name: p.Name, nm: mm, minSim: minSim}, true
	case TypeMatcher:
		return rowKey{typ: p.Type, isType: true, minSim: minSim}, true
	}
	return rowKey{}, false
}

// memoGenBytes bounds one generation of the row memo; at most two are
// resident, so the memo never exceeds twice this.
const memoGenBytes = 1 << 20

// rowMemo is the bounded store of score rows, in two generations: inserts go
// to cur, and a full cur becomes old, dropping the previous old. A hit in old
// re-inserts the row into cur, so a name that recurs at least once per
// generation survives any stream of one-off names without an LRU list. Rows
// are immutable once stored.
type rowMemo struct {
	mu                 sync.Mutex
	cur, old           map[rowKey][]rowEntry
	curBytes, oldBytes int64
	hits, misses       int64
}

func (mm *rowMemo) get(k rowKey) ([]rowEntry, bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	row, ok := mm.cur[k]
	if !ok {
		if row, ok = mm.old[k]; ok {
			mm.insert(k, row)
		}
	}
	if ok {
		mm.hits++
	} else {
		mm.misses++
	}
	return row, ok
}

func (mm *rowMemo) put(k rowKey, row []rowEntry) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.insert(k, row)
}

// insert stores row in the current generation unless a racing miss already
// did, starting a new generation when it would not fit. The key's strings are
// cloned: a parsed schema's names may alias the request body they were cut
// from. Called with mu held.
func (mm *rowMemo) insert(k rowKey, row []rowEntry) {
	cost := int64(128 + len(k.name) + len(k.typ) + 16*len(row))
	if _, ok := mm.cur[k]; ok || cost > memoGenBytes {
		return
	}
	if mm.cur == nil || mm.curBytes+cost > memoGenBytes {
		mm.old, mm.oldBytes = mm.cur, mm.curBytes
		mm.cur, mm.curBytes = make(map[rowKey][]rowEntry), 0
	}
	k.name, k.typ = strings.Clone(k.name), strings.Clone(k.typ)
	mm.cur[k] = row
	mm.curBytes += cost
}

func (mm *rowMemo) snapshot() (hits, misses, bytes int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.hits, mm.misses, mm.curBytes + mm.oldBytes
}

// Vocabulary is one node universe (a whole repository or a shard view's
// member nodes) grouped by interned key. Building it is a single pass over
// the universe; the grouping is immutable afterwards and safe for concurrent
// use by the kernel.
type Vocabulary struct {
	ni     *NameIndex
	nodes  []*schema.Node   // the universe, in its original order
	groups [][]*schema.Node // index key -> the universe's nodes carrying it, ascending by node ID
}

// Vocabulary groups a node universe by the index's interned keys. Every node
// must belong to the index's repository; a universe containing foreign nodes
// yields a vocabulary that always takes the naive path (the kernel cannot
// vouch for its dedup there).
func (ni *NameIndex) Vocabulary(nodes []*schema.Node) *Vocabulary {
	v := &Vocabulary{ni: ni, nodes: nodes, groups: make([][]*schema.Node, len(ni.keys))}
	for _, n := range nodes {
		if n.ID < 0 || n.ID >= len(ni.keyOf) || ni.repo.Node(n.ID) != n {
			return &Vocabulary{nodes: nodes} // foreign universe: naive only
		}
		ki := ni.keyOf[n.ID]
		v.groups[ki] = append(v.groups[ki], n)
	}
	for _, g := range v.groups { // a universe need not list its nodes in ID order
		slices.SortFunc(g, func(a, b *schema.Node) int { return a.ID - b.ID })
	}
	return v
}
