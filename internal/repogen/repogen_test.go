package repogen

import (
	"sort"
	"strings"
	"testing"

	"bellflower/internal/matcher"
	"bellflower/internal/schema"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TargetNodes: 0, MeanTreeSize: 10, MaxDepth: 5},
		{TargetNodes: 100, MeanTreeSize: 1, MaxDepth: 5},
		{TargetNodes: 100, MeanTreeSize: 10, MaxDepth: 0},
		{TargetNodes: 100, MeanTreeSize: 10, MaxDepth: 5, NoiseRate: 2},
		{TargetNodes: 100, MeanTreeSize: 10, MaxDepth: 5, AttributeRate: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestGenerateScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 2500
	repo := MustGenerate(cfg)
	if err := repo.Validate(); err != nil {
		t.Fatalf("generated repository invalid: %v", err)
	}
	st := repo.Stats()
	if st.Nodes < cfg.TargetNodes || st.Nodes > cfg.TargetNodes+cfg.MeanTreeSize*4 {
		t.Errorf("node count %d not near target %d", st.Nodes, cfg.TargetNodes)
	}
	if st.Trees < 10 {
		t.Errorf("too few trees: %d", st.Trees)
	}
	if st.MaxDepth > cfg.MaxDepth+1 {
		t.Errorf("depth %d exceeds bound %d", st.MaxDepth, cfg.MaxDepth)
	}
	// Average tree size should be in the right ballpark.
	avg := float64(st.Nodes) / float64(st.Trees)
	if avg < float64(cfg.MeanTreeSize)/3 || avg > float64(cfg.MeanTreeSize)*3 {
		t.Errorf("average tree size %.1f far from mean %d", avg, cfg.MeanTreeSize)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 800
	r1 := MustGenerate(cfg)
	r2 := MustGenerate(cfg)
	if r1.Len() != r2.Len() || r1.NumTrees() != r2.NumTrees() {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d trees",
			r1.Len(), r2.Len(), r1.NumTrees(), r2.NumTrees())
	}
	for i := range r1.Nodes() {
		a, b := r1.Node(i), r2.Node(i)
		if a.Name != b.Name || a.Kind != b.Kind || a.Type != b.Type {
			t.Fatalf("node %d differs: %v vs %v", i, a, b)
		}
	}

	cfg2 := cfg
	cfg2.Seed = 99
	r3 := MustGenerate(cfg2)
	same := r3.Len() == r1.Len()
	if same {
		diff := false
		for i := range r1.Nodes() {
			if r1.Node(i).Name != r3.Node(i).Name {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Errorf("different seeds produced identical repositories")
	}
}

func TestGenerateVocabularyDensity(t *testing.T) {
	// The canonical experiment needs dense candidate sets for
	// name/address/email: verify the generator reuses that vocabulary.
	cfg := DefaultConfig()
	cfg.TargetNodes = 3000
	repo := MustGenerate(cfg)
	personal := schema.MustParseSpec("address(name,email)")
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.5})
	for i, set := range cands.Sets {
		if len(set.Elems) < 20 {
			t.Errorf("candidate set %d (%s) has only %d elements — vocabulary too sparse",
				i, set.Personal.Name, len(set.Elems))
		}
	}
}

func TestGenerateNoiseProducesVariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 3000
	cfg.NoiseRate = 0.5
	repo := MustGenerate(cfg)
	variants := map[string]bool{}
	for _, n := range repo.Nodes() {
		variants[n.Name] = true
	}
	// Noise must create names beyond the clean concept list.
	clean := map[string]bool{}
	for _, c := range concepts() {
		clean[c] = true
	}
	noisy := 0
	for v := range variants {
		if !clean[v] {
			noisy++
		}
	}
	if noisy < 10 {
		t.Errorf("only %d noisy name variants; noise not effective", noisy)
	}
}

func TestGenerateZeroNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 500
	cfg.NoiseRate = 0
	repo := MustGenerate(cfg)
	clean := map[string]bool{}
	for _, c := range concepts() {
		clean[c] = true
	}
	for _, n := range repo.Nodes() {
		if !clean[n.Name] {
			t.Fatalf("unexpected noisy name %q with NoiseRate=0", n.Name)
		}
	}
}

func TestGenerateAttributes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 2000
	cfg.AttributeRate = 0.3
	repo := MustGenerate(cfg)
	attrs := 0
	for _, n := range repo.Nodes() {
		if n.Kind == schema.KindAttribute {
			attrs++
			if !n.IsLeaf() {
				t.Fatalf("attribute %v has children", n)
			}
		}
	}
	if attrs == 0 {
		t.Errorf("no attributes generated at rate 0.3")
	}
}

func TestGenerateTypes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 1000
	cfg.NoiseRate = 0
	repo := MustGenerate(cfg)
	typed := 0
	for _, n := range repo.Nodes() {
		if n.Type != "" {
			typed++
		}
	}
	if typed == 0 {
		t.Errorf("no datatypes assigned")
	}
}

func TestTreeNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNodes = 300
	repo := MustGenerate(cfg)
	for _, tr := range repo.Trees() {
		if !strings.HasPrefix(tr.Name, "synthetic-") {
			t.Errorf("tree name %q missing generator tag", tr.Name)
		}
	}
}

// concepts returns the sorted concept vocabulary of the productions.
func concepts() []string {
	set := map[string]bool{}
	for c, kids := range productions {
		set[c] = true
		for _, k := range kids {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func TestConcepts(t *testing.T) {
	cs := concepts()
	if len(cs) < 30 {
		t.Errorf("vocabulary too small: %d concepts", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Errorf("concepts not sorted/deduped at %d", i)
		}
	}
	// Canonical experiment vocabulary must be present.
	want := []string{"name", "address", "email", "book", "title", "author"}
	set := map[string]bool{}
	for _, c := range cs {
		set[c] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("concept %q missing", w)
		}
	}
}
