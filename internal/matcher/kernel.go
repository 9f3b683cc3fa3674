package matcher

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

// PropertyLocal is an opt-in marker for matcher implementations outside this
// package: returning true promises that Similarity depends only on the two
// nodes' Name and Type fields (never on tree position, children or other
// context), which lets the keyed kernel score each distinct (name, datatype)
// key once and fan the score out to every node sharing it. The built-in
// name, synonym, datatype and combined matchers are recognized without the
// marker; structure matchers are context-dependent and must not implement
// it.
type PropertyLocal interface {
	PropertyLocal() bool
}

// isPropertyLocal reports whether m's similarity is a pure function of
// (Name, Type) pairs, making vocabulary dedup exact.
func isPropertyLocal(m Matcher) bool {
	switch mm := m.(type) {
	case NameMatcher, TypeMatcher:
		return true
	case *SynonymMatcher:
		return true
	case *Combined:
		for _, p := range mm.parts {
			if !isPropertyLocal(p.Matcher) {
				return false
			}
		}
		return true
	}
	if pl, ok := m.(PropertyLocal); ok {
		return pl.PropertyLocal()
	}
	return false
}

// personalScratch is one worker's per-personal-node state: the node, its
// prepared name and the ASCII folds the synonym and datatype matchers need,
// plus the worker's reusable string-similarity scratch.
type personalScratch struct {
	sc      strsim.Scorer
	node    *schema.Node
	prep    strsim.Prepared
	synFold string
	typFold string
	row     []rowEntry // scoreRow's reusable output buffer
}

// scoreFunc scores one (personal node, interned key) pair. Implementations
// must be bit-identical to the matcher's Similarity on any node carrying the
// key — the equivalence property tests pin this.
type scoreFunc func(ps *personalScratch, key *nameKey) float64

// compileScore builds the fast scoring function for a property-local
// matcher. Matchers recognized only via the PropertyLocal marker fall back
// to calling Similarity against the key's representative node — still
// deduplicated, just not allocation-free.
func compileScore(m Matcher) scoreFunc {
	switch mm := m.(type) {
	case NameMatcher:
		tokenAware := mm.TokenAware
		return func(ps *personalScratch, key *nameKey) float64 {
			s := ps.sc.Fuzzy(&ps.prep, &key.prep)
			if tokenAware {
				if t := ps.sc.TokenSimilarity(&ps.prep, &key.prep); t > s {
					s = t
				}
			}
			return s
		}
	case *SynonymMatcher:
		return func(ps *personalScratch, key *nameKey) float64 {
			if ps.synFold == key.synFold {
				return 1
			}
			if mm.dict[ps.synFold][key.synFold] {
				return 1
			}
			return 0
		}
	case TypeMatcher:
		return func(ps *personalScratch, key *nameKey) float64 {
			a, b := ps.typFold, key.typFold
			if a == "" || b == "" {
				return 0.5
			}
			if a == b {
				return 1
			}
			fa, fb := typeFamily[a], typeFamily[b]
			if fa != "" && fa == fb {
				return 0.75
			}
			return 0
		}
	case *Combined:
		parts := make([]scoreFunc, len(mm.parts))
		for i, p := range mm.parts {
			parts[i] = compileScore(p.Matcher)
		}
		weights, total := mm.parts, mm.total
		return func(ps *personalScratch, key *nameKey) float64 {
			sum := 0.0
			for i, sub := range parts {
				sum += weights[i].Weight * sub(ps, key)
			}
			return sum / total
		}
	default:
		return func(ps *personalScratch, key *nameKey) float64 {
			return m.Similarity(ps.node, key.rep)
		}
	}
}

// pruneEligible reports whether the length-difference bound applies: only
// the pure fuzzy name matcher's score is capped by 1 − |la−lb|/max(la,lb).
// Token awareness can exceed it.
func pruneEligible(m Matcher) bool {
	nm, ok := m.(NameMatcher)
	return ok && !nm.TokenAware
}

// parallelThreshold is the (missed personal nodes × index keys) pair count
// below which the keyed kernel stays on one goroutine — tiny requests, and
// requests served mostly from the row memo, finish before worker spin-up pays
// for itself.
const parallelThreshold = 1 << 12

// MatchInfo counts the personal nodes of one Match call whose score row was
// found in the row memo, and those looked up and missing. Matchers the memo
// does not hold count as neither.
type MatchInfo struct{ MemoHits, MemoMisses int }

// FindCandidates is Match without the memo report.
func (v *Vocabulary) FindCandidates(personal *schema.Tree, m Matcher, cfg Config) *Candidates {
	c, _ := v.Match(personal, m, cfg)
	return c
}

// Match is the vocabulary-deduplicated element-matching kernel:
// FindCandidatesAmong over the vocabulary's universe, as row → emit. A
// personal node's row (scoreRow) is every index key scoring above cfg.MinSim,
// best first: one similarity call per distinct (name, datatype) key instead
// of one per node, on zero-allocation scratch, the pure fuzzy matcher
// skipping OSA passes its length-difference bound proves cannot clear MinSim.
// Rows span the whole index, not one universe's keys, so those of
// value-identified matchers (memoKey) live in the NameIndex's bounded memo
// for every view to share, and a recurring personal name is scored once per
// repository generation; rows are resolved first and only the misses scored,
// on a bounded worker set when there are enough. Once every row is known,
// the caller's goroutine emits each set by copying the node groups of its
// row's keys in row order — no per-set sort — into one pooled slab, which
// Candidates.Release hands back.
//
// The result is bit-identical — scores and order — to the naive reference
// kernel FindCandidatesAmong over the same universe, hit or miss: dedup only
// reuses scores across equal (Name, Type) keys, pruning only skips pairs the
// MinSim filter would drop, a stored row is the row the call would have
// computed, and (sim desc, node ID asc) is a total order independent of
// evaluation schedule. Matchers that are not property-local (structure
// matchers, unknown implementations) fall back to the naive kernel.
func (v *Vocabulary) Match(personal *schema.Tree, m Matcher, cfg Config) (*Candidates, MatchInfo) {
	ni := v.ni
	if ni == nil || !isPropertyLocal(m) {
		if ni != nil {
			ni.fallbacks.Add(1)
		}
		return FindCandidatesAmong(personal, v.nodes, m, cfg), MatchInfo{}
	}
	pnodes := personal.Nodes()
	rows := make([][]rowEntry, len(pnodes))
	var info MatchInfo
	var missed []int
	for i, p := range pnodes {
		if k, ok := memoKey(m, p, cfg.MinSim); ok {
			if row, ok := ni.memo.get(k); ok {
				rows[i] = row
				info.MemoHits++
				continue
			}
			info.MemoMisses++
		}
		missed = append(missed, i)
	}
	if len(missed) > 0 {
		v.scoreMissed(pnodes, missed, rows, m, cfg.MinSim)
	}
	return v.emitAll(personal, rows), info
}

// scoreMissed scores the rows of the personal nodes listed in missed into
// rows, storing the memoizable ones in the memo.
func (v *Vocabulary) scoreMissed(pnodes []*schema.Node, missed []int, rows [][]rowEntry, m Matcher, minSim float64) {
	ni := v.ni
	score, prune := compileScore(m), pruneEligible(m)
	var next atomic.Int64
	// A worker that panics (a matcher's Similarity can) hands the value to
	// the caller, which re-panics once every worker is done, so the panic
	// surfaces on the calling goroutine where its recovery can see it.
	var panicOnce sync.Once
	var panicked any
	work := func() {
		defer func() {
			if v := recover(); v != nil {
				panicOnce.Do(func() { panicked = v })
			}
		}()
		var ps personalScratch
		for j := int(next.Add(1)) - 1; j < len(missed); j = int(next.Add(1)) - 1 {
			p := pnodes[missed[j]]
			ps.node, ps.prep = p, strsim.Prepare(p.Name)
			ps.synFold, ps.typFold = fold(p.Name), fold(p.Type)
			// ps.row is reused; the clone is the row's own, and a stored row
			// is immutable.
			row := slices.Clone(ni.scoreRow(&ps, score, prune, minSim))
			if k, ok := memoKey(m, p, minSim); ok {
				ni.memo.put(k, row)
			}
			rows[missed[j]] = row
			ni.savedCalls.Add(int64(max(0, len(v.nodes)-len(ni.keys))))
		}
	}
	var wg sync.WaitGroup
	if len(missed)*len(ni.keys) >= parallelThreshold {
		for w := min(runtime.GOMAXPROCS(0), len(missed)); w > 1; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
	}
	work() // the caller is the first worker
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// maxPooledSlab is the largest candidate slab, in candidates, that Release
// keeps for reuse (1 MiB); a larger one, from an unusually wide request, is
// left to the collector.
const maxPooledSlab = 1 << 16

// slabPool recycles the slabs candidate sets are cut from.
var slabPool = sync.Pool{New: func() any { return new([]Candidate) }}

// emitAll builds the candidate sets of personal from their score rows, every
// set cut from one pooled slab of exactly their total size.
func (v *Vocabulary) emitAll(personal *schema.Tree, rows [][]rowEntry) *Candidates {
	total := 0
	for _, row := range rows {
		total += v.setLen(row)
	}
	slab := slabPool.Get().(*[]Candidate)
	if cap(*slab) < total {
		*slab = make([]Candidate, 0, total)
	}
	out := &Candidates{Personal: personal, Sets: make([]CandidateSet, len(rows)), slab: slab}
	elems := (*slab)[:0]
	for i, row := range rows {
		out.Sets[i].Personal = personal.NodeAt(i)
		lo := len(elems)
		elems = v.emit(elems, row)
		if len(elems) > lo { // the naive kernel leaves empty sets nil
			out.Sets[i].Elems = elems[lo:len(elems):len(elems)]
		}
	}
	return out
}

// Release hands the storage of c's candidate sets back for reuse by a later
// Match. Only candidates built by Vocabulary.Match hold pooled storage;
// Release on any other value, or a second time, does nothing. Neither c nor
// any set read from it may be used afterwards, so the one caller that owns a
// result calls it after its last use; storage never handed back is
// collected as usual.
func (c *Candidates) Release() {
	slab := c.slab
	if slab == nil {
		return
	}
	c.slab, c.Sets = nil, nil
	if cap(*slab) <= maxPooledSlab {
		slabPool.Put(slab)
	}
}

// scoreRow scores ps's personal node against every interned key and returns
// the keys above minSim ordered (sim desc, key asc), in ps's reusable buffer.
func (ni *NameIndex) scoreRow(ps *personalScratch, score scoreFunc, prune bool, minSim float64) []rowEntry {
	row, prunes := ps.row[:0], 0
	for ki := range ni.keys {
		key := &ni.keys[ki]
		var s float64
		if prune {
			var pruned bool
			if s, pruned = ps.sc.FuzzyBounded(&ps.prep, &key.prep, minSim); pruned {
				prunes++
				continue
			}
		} else {
			s = score(ps, key)
		}
		if s > minSim {
			row = append(row, rowEntry{sim: s, key: int32(ki)})
		}
	}
	slices.SortFunc(row, func(a, b rowEntry) int {
		if a.sim != b.sim {
			return cmp.Compare(b.sim, a.sim)
		}
		return cmp.Compare(a.key, b.key)
	})
	ps.row = row
	ni.simCalls.Add(int64(len(ni.keys) - prunes))
	ni.pruneHits.Add(int64(prunes))
	return row
}

// mergeGroups is how many node groups of one equal-score run emit merges in
// place — each merge may shift the run built so far — before it appends the
// rest and sorts the run by ID when it closes, which keeps a matcher with few
// distinct scores (datatype, synonym) at O(n log n) per run.
const mergeGroups = 16

// setLen is the size of the candidate set emit produces from row: the
// nodes of each row key present in this universe.
func (v *Vocabulary) setLen(row []rowEntry) int {
	n := 0
	for _, e := range row {
		n += len(v.groups[e.key])
	}
	return n
}

// emit appends the candidate set of one score row to elems, which must have
// room for setLen(row) more: each row key present in this universe
// contributes its node group at the key's score. Rows are score-descending
// and groups ID-ascending, so copying groups in row order yields (sim desc,
// node ID asc) once the groups inside a run of equal score are merged by ID.
func (v *Vocabulary) emit(elems []Candidate, row []rowEntry) []Candidate {
	run, groups := len(elems), 0 // the current run starts at elems[run] and holds groups groups
	closeRun := func() {
		if groups > mergeGroups {
			slices.SortFunc(elems[run:], func(a, b Candidate) int { return a.Node.ID - b.Node.ID })
		}
		run, groups = len(elems), 0
	}
	for i, e := range row {
		if i > 0 && e.sim != row[i-1].sim {
			closeRun()
		}
		group := v.groups[e.key]
		if len(group) == 0 {
			continue // the key is absent from this universe
		}
		a, b := len(elems)-1, len(group)-1
		elems = elems[:len(elems)+len(group)]
		if groups++; groups > mergeGroups {
			a = run - 1 // no merging: plain copy
		}
		for w := len(elems) - 1; b >= 0; w-- {
			if a >= run && elems[a].Node.ID > group[b].ID {
				elems[w] = elems[a]
				a--
			} else {
				elems[w] = Candidate{Node: group[b], Sim: e.sim}
				b--
			}
		}
	}
	closeRun()
	return elems
}
