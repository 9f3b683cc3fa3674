package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAgglomerativeComponents(t *testing.T) {
	// Two 'a(b)' islands separated by a long spine: threshold 2 keeps them
	// apart, threshold large enough merges them.
	_, _, ix, cands := fixture("a(b)",
		"r(a(b),x(y(z(w(a(b))))))")
	near, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(near.Clusters) < 2 {
		t.Errorf("threshold 2 should keep islands apart: %d clusters", len(near.Clusters))
	}
	if len(far.Clusters) != 1 {
		t.Errorf("threshold 12 should merge everything: %d clusters", len(far.Clusters))
	}
}

func TestAgglomerativeTreePureAndDisjoint(t *testing.T) {
	_, _, ix, cands := fixture("book(title,author)",
		"lib(book(title,author),magazine(title,editor))",
		"store(book(title,author))")
	res, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, c := range res.Clusters {
		medoidMember := false
		for _, e := range c.Elements {
			if seen[e.Node.ID] {
				t.Fatalf("element %v in two clusters", e.Node)
			}
			seen[e.Node.ID] = true
			total++
			if ix.TreeID(e.Node) != c.TreeID {
				t.Errorf("cluster %d not tree-pure", c.ID)
			}
			if e.Node == c.Medoid {
				medoidMember = true
			}
		}
		if !medoidMember {
			t.Errorf("cluster %d medoid not a member", c.ID)
		}
	}
	// Agglomerative never drops elements.
	if total != len(BuildElements(ix, cands)) {
		t.Errorf("element conservation: %d of %d", total, len(BuildElements(ix, cands)))
	}
	if res.Unassigned != 0 {
		t.Errorf("unassigned = %d", res.Unassigned)
	}
}

func TestAgglomerativeMaxClusterSize(t *testing.T) {
	_, _, ix, cands := fixture("b", "r(b,b,b,b,b,b,b,b,b)")
	res, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: 4, MaxClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Len() > 3 {
			t.Errorf("cluster %d has %d > 3 elements", c.ID, c.Len())
		}
	}
	if len(res.Clusters) < 3 {
		t.Errorf("expected at least 3 chunks, got %d", len(res.Clusters))
	}
}

func TestAgglomerativeValidate(t *testing.T) {
	_, _, ix, cands := fixture("a", "a")
	if _, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: -1}); err == nil {
		t.Errorf("negative threshold accepted")
	}
	if _, err := Agglomerative(ix, cands, AgglomerativeConfig{MaxClusterSize: -1}); err == nil {
		t.Errorf("negative size accepted")
	}
}

// Property: cluster count is non-increasing in the merge threshold, and at
// threshold 0 every cluster is a set of identical-position elements
// (distance 0 means same node, so singletons).
func TestAgglomerativeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixture(rng)
		prev := -1
		for th := 0; th <= 8; th += 2 {
			res, err := Agglomerative(ix, cands, AgglomerativeConfig{MergeThreshold: th})
			if err != nil {
				return false
			}
			if prev >= 0 && len(res.Clusters) > prev {
				return false
			}
			prev = len(res.Clusters)
			if th == 0 {
				for _, c := range res.Clusters {
					if c.Len() != 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
