package bellflower

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// TestShardedServiceFacade is the facade-level golden comparison: a
// 4-shard fan-out must deliver the same top-N report as the unsharded
// service.
func TestShardedServiceFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 900
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Threshold = 0.6
	opts.Variant = VariantTree
	opts.TopN = 5

	svc := NewService(repo, ServiceConfig{})
	defer svc.Close()
	sharded := NewShardedService(repo, 4, ServiceConfig{})
	defer sharded.Close()
	if sharded.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sharded.NumShards())
	}

	personal := MustParseSchema("address(name,email)")
	want, err := svc.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Mappings) == 0 {
		t.Fatal("no mappings; golden comparison is vacuous")
	}
	wd, gd := want.Deltas(), got.Deltas()
	if len(wd) != len(gd) {
		t.Fatalf("sharded top-N has %d mappings, unsharded %d", len(gd), len(wd))
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Errorf("rank %d: sharded Δ %v, unsharded %v", i, gd[i], wd[i])
		}
	}

	// Prometheus rendering through the facade covers every shard.
	var b strings.Builder
	if err := WritePrometheusMetrics(&b, sharded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bellflower_shards 4") {
		t.Errorf("metrics missing shard gauge:\n%s", b.String())
	}

	// Shard counts clamp to the tree count.
	small := NewRepository()
	small.MustAdd(MustParseSchema("a(b,c)"))
	one := NewShardedService(small, 8, ServiceConfig{})
	defer one.Close()
	if one.NumShards() != 1 {
		t.Errorf("1-tree repository sharded %d ways", one.NumShards())
	}
}

func TestSaveLoadRepositoryFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 600
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	var buf bytes.Buffer
	if err := SaveRepository(&buf, repo); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := LoadRepository(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != repo.Len() || back.NumTrees() != repo.NumTrees() {
		t.Errorf("round trip lost data: %d/%d nodes", back.Len(), repo.Len())
	}
	// A loaded repository must be fully matchable.
	m := NewMatcher(back)
	opts := DefaultOptions()
	opts.MinSim = 0.3
	rep, err := m.Match(MustParseSchema("address(name,email)"), opts)
	if err != nil {
		t.Fatalf("Match on loaded repo: %v", err)
	}
	if rep.MappingElements == 0 {
		t.Errorf("loaded repository yields no candidates")
	}
}

func TestInferSchemaFacade(t *testing.T) {
	tr, err := InferSchema(strings.NewReader(
		`<contacts><person id="1"><name>A</name><email>a@x</email></person>
		 <person id="2"><name>B</name><phone>5</phone></person></contacts>`))
	if err != nil {
		t.Fatalf("InferSchema: %v", err)
	}
	if tr.String() != "contacts(person(id@,name,email,phone))" {
		t.Errorf("inferred = %q", tr.String())
	}
	// Use the inferred tree as a repository schema.
	repo := NewRepository()
	repo.MustAdd(tr)
	m := NewMatcher(repo)
	opts := DefaultOptions()
	opts.Variant = VariantTree
	opts.Threshold = 0.5
	opts.MinSim = 0.4
	rep, err := m.Match(MustParseSchema("person(name,email)"), opts)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(rep.Mappings) == 0 {
		t.Errorf("no mappings against inferred schema")
	}
}

func TestNewStructureMatcherFacade(t *testing.T) {
	for _, kind := range []string{"path", "child", "leaf"} {
		sm, err := NewStructureMatcher(kind)
		if err != nil {
			t.Fatalf("NewStructureMatcher(%q): %v", kind, err)
		}
		if sm == nil {
			t.Fatalf("nil matcher for %q", kind)
		}
	}
	if _, err := NewStructureMatcher("bogus"); err == nil {
		t.Errorf("bogus kind accepted")
	}

	// Two-phase matching through the facade.
	repo := NewRepository()
	repo.MustAdd(MustParseSchema("lib(book(title,author))"))
	repo.MustAdd(MustParseSchema("misc(title,junk(author))"))
	m := NewMatcher(repo)
	sm, _ := NewStructureMatcher("path")
	opts := DefaultOptions()
	opts.Variant = VariantTree
	opts.Threshold = 0.4
	opts.MinSim = 0.4
	opts.StructureMatcher = sm
	opts.StructureWeight = 0.5
	rep, err := m.Match(MustParseSchema("book(title,author)"), opts)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(rep.Mappings) == 0 || rep.Mappings[0].Images[0].Tree().ID != 0 {
		t.Errorf("two-phase matching did not prefer the structurally faithful tree")
	}

	// A blend weight outside [0,1], NaN included, is an error before any
	// work, not a panic in the rescoring stage.
	for _, w := range []float64{2, -0.5, math.NaN()} {
		opts.StructureWeight = w
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("structure weight %v: Match panicked: %v", w, r)
				}
			}()
			if _, err := m.Match(MustParseSchema("book(title,author)"), opts); err == nil {
				t.Errorf("structure weight %v accepted", w)
			}
		}()
	}
}

// TestMinSimOutOfRangeFacade: a candidate similarity threshold outside
// [0,1], NaN included, is an error before any work — at −0.1 every
// repository node would otherwise be a candidate of every personal node.
func TestMinSimOutOfRangeFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 600
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(repo)
	opts := DefaultOptions()
	for _, s := range []float64{-0.1, 1.5, math.NaN()} {
		opts.MinSim = s
		rep, err := m.Match(MustParseSchema("book(title,author)"), opts)
		if err == nil {
			t.Errorf("min_sim %v accepted: %d mapping elements", s, rep.MappingElements)
		} else if !strings.Contains(err.Error(), "min_sim") {
			t.Errorf("min_sim %v: error %q does not name min_sim", s, err)
		}
	}
}

func TestAgglomerativeFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 1200
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(repo)
	personal := MustParseSchema("address(name,email)")
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Agglomerative = true
	rep, err := m.Match(personal, opts)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if rep.Clusters == 0 {
		t.Errorf("agglomerative produced no clusters")
	}
	// Still a valid matching run.
	for _, mp := range rep.Mappings {
		if mp.Score.Delta < opts.Threshold {
			t.Errorf("mapping below threshold")
		}
	}
}

func TestCostModelFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 1500
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(repo)
	personal := MustParseSchema("address(name,email)")
	opts := DefaultOptions()
	opts.MinSim = 0.3
	rep, err := m.Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.PartialMappings == 0 {
		t.Skip("no partial mappings to calibrate from")
	}
	model, err := CalibrateCostModel(
		rep.ClusterTime.Seconds(), float64(rep.Clusters*rep.Iterations*rep.MappingElements),
		rep.GenTime.Seconds(), float64(rep.Counters.PartialMappings),
	)
	if err != nil {
		t.Fatalf("CalibrateCostModel: %v", err)
	}
	if model.SecondsPerPartial <= 0 {
		t.Errorf("model = %+v", model)
	}
}

// TestPartitionStrategyFacade covers the facade wiring of the shard
// partition strategies: parsing, the explicit-strategy constructor, and
// report equivalence between the two strategies.
func TestPartitionStrategyFacade(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PartitionStrategy
	}{
		{"balanced", PartitionBalanced},
		{"clustered", PartitionClustered},
	} {
		got, err := ParsePartitionStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePartitionStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePartitionStrategy("round-robin"); err == nil {
		t.Error("unknown strategy accepted")
	}

	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 600
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Threshold = 0.6
	opts.Variant = VariantTree
	personal := MustParseSchema("address(name,email)")

	var deltas [][]float64
	for _, strategy := range []PartitionStrategy{PartitionBalanced, PartitionClustered} {
		svc := NewShardedServicePartitioned(repo, 3, ServiceConfig{}, strategy)
		rep, err := svc.Match(context.Background(), personal, opts)
		if err != nil {
			svc.Close()
			t.Fatalf("%v: %v", strategy, err)
		}
		deltas = append(deltas, rep.Deltas())
		if st := svc.Stats(); st.CandidatePrePass != 1 {
			t.Errorf("%v: candidate pre-pass ran %d times, want 1", strategy, st.CandidatePrePass)
		}
		svc.Close()
	}
	if len(deltas[0]) == 0 {
		t.Fatal("no mappings; strategy comparison is vacuous")
	}
	if len(deltas[0]) != len(deltas[1]) {
		t.Fatalf("balanced found %d mappings, clustered %d", len(deltas[0]), len(deltas[1]))
	}
	for i := range deltas[0] {
		if deltas[0][i] != deltas[1][i] {
			t.Errorf("rank %d: balanced Δ %v, clustered %v", i, deltas[0][i], deltas[1][i])
		}
	}
}
