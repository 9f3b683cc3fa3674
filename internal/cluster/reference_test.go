package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/schema"
)

// The reference implementation: Alg. 1 written the straight-line way — maps
// and slices of slices rebuilt every iteration, and an exhaustive medoid —
// over the same document-ordered universe. The flat pooled state must
// reproduce its result exactly. This is the only place a quadratic medoid
// scan survives.

// refMedoid is the medoid by definition: full integer sums, no early exit (a
// truncated sum is not comparable to a complete one), smallest sum wins,
// ties go to the lowest Node.ID.
func refMedoid(ix *labeling.Index, elems []Element, mem []int) int {
	best, bestSum := mem[0], -1
	for _, i := range mem {
		sum := 0
		for _, j := range mem {
			sum += ix.DistanceID(elems[i].Node.ID, elems[j].Node.ID)
		}
		if bestSum < 0 || sum < bestSum || (sum == bestSum && elems[i].Node.ID < elems[best].Node.ID) {
			best, bestSum = i, sum
		}
	}
	return best
}

type refState struct {
	ix             *labeling.Index
	cfg            Config
	elems          []Element
	medoids        []int   // element index of each cluster's centroid
	members        [][]int // element indices per cluster, ascending
	prevMedoidNode []int
}

func refKMeans(ix *labeling.Index, cands *matcher.Candidates, cfg Config) *Result {
	st := &refState{ix: ix, cfg: cfg, elems: buildElements(ix, cands)}
	if min := cands.MinSet(); min >= 0 {
		for i, e := range st.elems {
			if e.Mask&(1<<uint(min)) != 0 {
				st.medoids = append(st.medoids, i)
			}
		}
	}
	st.prevMedoidNode = make([]int, len(st.elems))
	for i := range st.prevMedoidNode {
		st.prevMedoidNode[i] = -1
	}
	res := &Result{}
	prev := len(st.medoids)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		moves := st.assignAndRebuild()
		for c, mem := range st.members {
			st.medoids[c] = refMedoid(ix, st.elems, mem)
		}
		st.join()
		st.filter(func(c int) bool { return cfg.RemoveBelow <= 0 || len(st.members[c]) >= cfg.RemoveBelow })
		st.split()
		res.Iterations++
		res.Moves = append(res.Moves, moves)
		stableMoves := float64(moves) <= cfg.Stability*float64(len(st.elems))
		dc := len(st.medoids) - prev
		if dc < 0 {
			dc = -dc
		}
		stableCount := float64(dc) <= cfg.Stability*math.Max(1, float64(prev))
		prev = len(st.medoids)
		if iter > 0 && stableMoves && stableCount {
			break
		}
	}
	assigned := 0
	for c, mem := range st.members {
		cl := &Cluster{ID: c, Medoid: st.elems[st.medoids[c]].Node, TreeID: ix.TreeID(st.elems[st.medoids[c]].Node)}
		for _, i := range mem {
			cl.Elements = append(cl.Elements, st.elems[i])
		}
		assigned += len(mem)
		res.Clusters = append(res.Clusters, cl)
	}
	res.Unassigned = len(st.elems) - assigned
	return res
}

func (st *refState) dist(i, j int) int {
	return st.ix.DistanceID(st.elems[i].Node.ID, st.elems[j].Node.ID)
}

func (st *refState) assignAndRebuild() int {
	byTree := map[int][]int{}
	for c, ei := range st.medoids {
		tid := st.ix.TreeID(st.elems[ei].Node)
		byTree[tid] = append(byTree[tid], c)
	}
	moves := 0
	members := make([][]int, len(st.medoids))
	for i := range st.elems {
		e := &st.elems[i]
		best, bestC := math.Inf(1), -1
		for _, c := range byTree[st.ix.TreeID(e.Node)] {
			eff := float64(st.dist(i, st.medoids[c]))
			if eff < best || (eff == best && bestC >= 0 &&
				st.elems[st.medoids[c]].Node.ID < st.elems[st.medoids[bestC]].Node.ID) {
				best, bestC = eff, c
			}
		}
		newMedoid := -1
		if bestC >= 0 {
			newMedoid = st.elems[st.medoids[bestC]].Node.ID
			members[bestC] = append(members[bestC], i)
		}
		if newMedoid != st.prevMedoidNode[i] {
			moves++
		}
		st.prevMedoidNode[i] = newMedoid
	}
	st.members = members
	st.filter(func(c int) bool { return len(st.members[c]) > 0 })
	return moves
}

func (st *refState) filter(keep func(c int) bool) {
	var med []int
	var mem [][]int
	for c := range st.medoids {
		if keep(c) {
			med, mem = append(med, st.medoids[c]), append(mem, st.members[c])
		}
	}
	st.medoids, st.members = med, mem
}

func (st *refState) join() {
	if st.cfg.JoinThreshold <= 0 || len(st.medoids) < 2 {
		return
	}
	parent := make([]int, len(st.medoids))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for a := range st.medoids {
		for b := a + 1; b < len(st.medoids); b++ {
			if d := st.dist(st.medoids[a], st.medoids[b]); d >= 0 && d <= st.cfg.JoinThreshold {
				if ra, rb := find(a), find(b); ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	merged := map[int][]int{}
	parts := map[int]int{}
	var order []int
	for c := range st.medoids {
		r := find(c)
		if parts[r] == 0 {
			order = append(order, r)
		}
		parts[r]++
		merged[r] = append(merged[r], st.members[c]...)
	}
	if len(order) == len(st.medoids) {
		return
	}
	var med []int
	var mem [][]int
	for _, r := range order {
		sort.Ints(merged[r])
		med, mem = append(med, refMedoid(st.ix, st.elems, merged[r])), append(mem, merged[r])
	}
	st.medoids, st.members = med, mem
}

func (st *refState) split() {
	if st.cfg.SplitAbove <= 0 {
		return
	}
	farthest := func(mem []int, from int) int {
		best, bestD := from, -1
		for _, i := range mem {
			d := st.dist(i, from)
			if d > bestD || (d == bestD && st.elems[i].Node.ID < st.elems[best].Node.ID) {
				best, bestD = i, d
			}
		}
		return best
	}
	var med []int
	var mem [][]int
	for c, m := range st.members {
		var ma, mb []int
		if len(m) > st.cfg.SplitAbove {
			a := farthest(m, m[0])
			b := farthest(m, a)
			for _, i := range m {
				if st.dist(i, a) <= st.dist(i, b) {
					ma = append(ma, i)
				} else {
					mb = append(mb, i)
				}
			}
		}
		if len(ma) == 0 || len(mb) == 0 {
			med, mem = append(med, st.medoids[c]), append(mem, m)
			continue
		}
		med = append(med, refMedoid(st.ix, st.elems, ma), refMedoid(st.ix, st.elems, mb))
		mem = append(mem, ma, mb)
	}
	st.medoids, st.members = med, mem
}

// describe renders a result completely: every cluster with its medoid, tree
// and members (node, mask) in order, plus the run counters.
func describe(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d moves=%v unassigned=%d\n", r.Iterations, r.Moves, r.Unassigned)
	for _, c := range r.Clusters {
		fmt.Fprintf(&b, "#%d tree=%d medoid=%d:", c.ID, c.TreeID, c.Medoid.ID)
		for _, e := range c.Elements {
			fmt.Fprintf(&b, " %d/%x", e.Node.ID, e.Mask)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// kmeansConfigs covers every knob: the three paper variants, reclustering
// steps on and off, forced splits and a run-out of iterations.
func kmeansConfigs() map[string]Config {
	base := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	return map[string]Config{
		"small":       base(func(c *Config) { c.JoinThreshold = 2 }),
		"medium":      base(func(c *Config) {}),
		"large":       base(func(c *Config) { c.JoinThreshold = 4 }),
		"bare":        base(func(c *Config) { c.JoinThreshold, c.RemoveBelow, c.SplitAbove = 0, 0, 0 }),
		"join-only":   base(func(c *Config) { c.RemoveBelow, c.SplitAbove = 0, 0 }),
		"remove-3":    base(func(c *Config) { c.RemoveBelow = 3 }),
		"split-4":     base(func(c *Config) { c.SplitAbove, c.JoinThreshold = 4, 6 }),
		"split-only":  base(func(c *Config) { c.SplitAbove, c.JoinThreshold, c.RemoveBelow = 3, 0, 0 }),
		"run-out":     base(func(c *Config) { c.Stability, c.MaxIterations = 0, 7 }),
		"one-and-all": base(func(c *Config) { c.MaxIterations, c.JoinThreshold = 1, 40 }),
	}
}

// TestKMeansMatchesReference: whole-run equivalence of the flat pooled state
// with the straight-line reference, over random repositories and every
// configuration — clusters, members, medoids, iteration and move counts.
func TestKMeansMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixtureSized(rng, 1+rng.Intn(4), 30+rng.Intn(170))
		for name, cfg := range kmeansConfigs() {
			got, err := KMeans(ix, cands, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if g, w := describe(got), describe(refKMeans(ix, cands, cfg)); g != w {
				t.Fatalf("seed %d config %s: flat state diverged from the reference\n got: %s\nwant: %s", seed, name, g, w)
			}
		}
	}
}

// FuzzKMeansEquivalence: the flat pooled state equals the straight-line
// reference on any random repository the fuzzer can reach, under any of the
// reference suite's configurations.
func FuzzKMeansEquivalence(f *testing.F) {
	names := make([]string, 0, len(kmeansConfigs()))
	for name := range kmeansConfigs() {
		names = append(names, name)
	}
	sort.Strings(names)
	f.Add(int64(1), uint8(2), uint8(120), uint8(0))
	f.Add(int64(2), uint8(0), uint8(255), uint8(7))
	f.Add(int64(3), uint8(3), uint8(30), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, trees, maxN, config uint8) {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixtureSized(rng, 1+int(trees%5), 1+int(maxN))
		name := names[int(config)%len(names)]
		cfg := kmeansConfigs()[name]
		got, err := KMeans(ix, cands, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := describe(got), describe(refKMeans(ix, cands, cfg)); g != w {
			t.Fatalf("seed %d config %s: flat state diverged from the reference\n got: %s\nwant: %s", seed, name, g, w)
		}
	})
}

// TestMedoidsAreExactEverywhere: whichever algorithm formed a cluster, its
// medoid is the exhaustive one of its members.
func TestMedoidsAreExactEverywhere(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixtureSized(rng, 1+rng.Intn(4), 20+rng.Intn(100))
		km, err := KMeans(ix, cands, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ag, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: 1 + rng.Intn(4), MaxClusterSize: rng.Intn(12)})
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"kmeans": km, "agglomerative": ag, "tree": TreeClusters(ix, cands)} {
			for _, c := range res.Clusters {
				all := make([]int, len(c.Elements))
				for i := range all {
					all[i] = i
				}
				if want := c.Elements[refMedoid(ix, c.Elements, all)].Node; c.Medoid != want {
					t.Fatalf("seed %d %s cluster %d: medoid %v, exhaustive medoid %v", seed, name, c.ID, c.Medoid, want)
				}
			}
		}
	}
}

// TestMedoidFalseTieRegression pins the defect the kernel rebuild removed.
// The old scan abandoned a member's sum as soon as it reached the best sum
// so far, then accepted "equal sum, lower ID" as a tie — comparing a
// truncated sum with a complete one. Here the elements are the three a's
// (IDs 1, 2, 3) and the root b (ID 0). The outer a is the center: its sum
// is 1+1+1 = 3. The root's sum is 1+2+2 = 5, but scanned in the old element
// order (a's first) it reached 3 after two terms, stopped, and won the
// "tie" on ID: the parent commit returned b here.
func TestMedoidFalseTieRegression(t *testing.T) {
	_, repo, ix, cands := fixture("a(b)", "b(a(a,a))")
	res := TreeClusters(ix, cands)
	if len(res.Clusters) != 1 || res.Clusters[0].Len() != 4 {
		t.Fatalf("fixture drifted: %s", describe(res))
	}
	if got, want := res.Clusters[0].Medoid, repo.Node(1); got != want {
		t.Errorf("medoid = %v (ID %d), want the outer a (ID 1), the member with the smallest full distance sum", got, got.ID)
	}
}

// TestKMeansPooledStateIsClean: a pooled state carries nothing from one run
// into the next — interleaving unrelated runs never changes a result.
func TestKMeansPooledStateIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ixA, candsA := randomFixtureSized(rng, 3, 150)
	ixB, candsB := randomFixtureSized(rng, 1, 20)
	cfg := DefaultConfig()
	first, _ := KMeans(ixA, candsA, cfg)
	want := describe(first)
	for i := 0; i < 5; i++ {
		if _, err := KMeans(ixB, candsB, cfg); err != nil {
			t.Fatal(err)
		}
		TreeClusters(ixB, candsB)
		if _, err := Agglomerative(ixA, candsA, AgglomerativeConfig{MergeThreshold: 2}); err != nil {
			t.Fatal(err)
		}
		again, _ := KMeans(ixA, candsA, cfg)
		if got := describe(again); got != want {
			t.Fatalf("run %d differs after interleaved runs\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestClusteringConcurrently: runs share nothing but the state pool, so any
// number of them may overlap (the serve workers do) and each still gets the
// answer a lone run gets. Meaningful under -race.
func TestClusteringConcurrently(t *testing.T) {
	type job struct {
		ix    *labeling.Index
		cands *matcher.Candidates
		want  string
	}
	rng := rand.New(rand.NewSource(3))
	jobs := make([]job, 6)
	for i := range jobs {
		ix, cands := randomFixtureSized(rng, 1+i%3, 40+20*i)
		res, err := KMeans(ix, cands, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{ix, cands, describe(res)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				j := jobs[(g+round)%len(jobs)]
				res, err := KMeans(j.ix, j.cands, DefaultConfig())
				if err != nil {
					t.Error(err)
					return
				}
				if got := describe(res); got != j.want {
					t.Errorf("goroutine %d round %d: concurrent run differs from the lone run", g, round)
					return
				}
				TreeClusters(j.ix, j.cands)
			}
		}(g)
	}
	wg.Wait()
}

// TestKMeansWarmAllocations pins the allocation count of a warm run: the
// Result, its Moves, and one backing array each for the cluster pointers,
// the cluster structs and the elements. Everything else is pooled.
func TestKMeansWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(5))
	ix, cands := randomFixtureSized(rng, 4, 200)
	cfg := DefaultConfig()
	cfg.SplitAbove = 10 // exercise split and join buffers too
	run := func() {
		if _, err := KMeans(ix, cands, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > 5 {
		t.Errorf("warm KMeans allocates %v times per run, want <= 5", n)
	}
}

// wideSchema returns a flat personal schema of n nodes.
func wideSchema(n int) *schema.Tree {
	b := schema.NewBuilder("wide")
	root := b.Root("book")
	for i := 1; i < n; i++ {
		b.Element(root, fmt.Sprintf("title%d", i))
	}
	return b.MustTree()
}

// TestPersonalSizeBoundary: 64 personal nodes fill the mask exactly and
// work; 65 are refused with the typed error, by every algorithm that can
// return one.
func TestPersonalSizeBoundary(t *testing.T) {
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(book(title1,title2),book(title3))"))
	ix := labeling.NewIndex(repo)
	match := func(n int) *matcher.Candidates {
		return matcher.FindCandidates(wideSchema(n), repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.5})
	}

	if FullMask(MaxPersonalNodes) != math.MaxUint64 || FullMask(3) != 7 || FullMask(0) != 0 {
		t.Errorf("FullMask boundary: %x %x %x", FullMask(MaxPersonalNodes), FullMask(3), FullMask(0))
	}
	at := match(MaxPersonalNodes)
	res, err := KMeans(ix, at, DefaultConfig())
	if err != nil {
		t.Fatalf("64-node personal schema refused: %v", err)
	}
	for _, c := range res.Clusters {
		_ = c.Useful(FullMask(MaxPersonalNodes)) // must not panic at the boundary
	}
	if _, err := Agglomerative(ix, at, AgglomerativeConfig{MergeThreshold: 2}); err != nil {
		t.Fatalf("64-node personal schema refused: %v", err)
	}
	TreeClusters(ix, at)

	over := match(MaxPersonalNodes + 1)
	if _, err := KMeans(ix, over, DefaultConfig()); !errors.Is(err, ErrSchemaTooLarge) {
		t.Errorf("KMeans over 65 nodes: err = %v, want ErrSchemaTooLarge", err)
	}
	if _, err := Agglomerative(ix, over, AgglomerativeConfig{}); !errors.Is(err, ErrSchemaTooLarge) {
		t.Errorf("Agglomerative over 65 nodes: err = %v, want ErrSchemaTooLarge", err)
	}
	if err := CheckPersonal(MaxPersonalNodes); err != nil {
		t.Errorf("CheckPersonal(64) = %v", err)
	}
}
