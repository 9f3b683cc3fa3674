package mapgen

import (
	"testing"

	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// tagged builds a mapping with the given Δ and a ClusterID tag so tests can
// trace which input list an output entry came from.
func tagged(delta float64, tag int) Mapping {
	return Mapping{Score: objective.Score{Delta: delta}, ClusterID: tag}
}

func deltasOf(ms []Mapping) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Score.Delta
	}
	return out
}

func assertRanked(t *testing.T, ms []Mapping) {
	t.Helper()
	for i := 1; i < len(ms); i++ {
		if ms[i].Score.Delta > ms[i-1].Score.Delta {
			t.Fatalf("merged list not sorted at %d: %v > %v", i, ms[i].Score.Delta, ms[i-1].Score.Delta)
		}
	}
}

func TestMergeRankedOrderingAndStability(t *testing.T) {
	lists := [][]Mapping{
		{tagged(0.9, 100), tagged(0.7, 301), tagged(0.5, 102)},
		{tagged(0.8, 200), tagged(0.7, 201)},
		{tagged(0.7, 101)},
	}
	got := MergeRanked(lists, 0)
	if len(got) != 6 {
		t.Fatalf("merged %d mappings, want 6", len(got))
	}
	assertRanked(t, got)
	// Equal-Δ ties resolve as Rank resolves them, by cluster ID — not by
	// which list a mapping came from.
	wantTags := []int{100, 200, 101, 201, 301, 102}
	for i, m := range got {
		if m.ClusterID != wantTags[i] {
			t.Errorf("position %d: tag %d, want %d (ties must follow Rank)", i, m.ClusterID, wantTags[i])
		}
	}
}

// Within one cluster ID, equal-Δ ties go by image node IDs, exactly as in
// Rank: the lists' order does not matter.
func TestMergeRankedTiesByImages(t *testing.T) {
	img := func(ids ...int) Mapping {
		m := tagged(0.5, 3)
		for _, id := range ids {
			m.Images = append(m.Images, &schema.Node{ID: id})
		}
		return m
	}
	got := MergeRanked([][]Mapping{{img(4, 9)}, {img(2, 7), img(4, 8)}}, 2)
	if len(got) != 2 {
		t.Fatalf("merged %d mappings, want 2", len(got))
	}
	if got[0].Images[0].ID != 2 || got[1].Images[1].ID != 8 {
		t.Errorf("merged images [%d %d], [%d %d]; want [2 7], [4 8]",
			got[0].Images[0].ID, got[0].Images[1].ID, got[1].Images[0].ID, got[1].Images[1].ID)
	}
}

func TestMergeRankedTopN(t *testing.T) {
	lists := [][]Mapping{
		{tagged(0.9, 0), tagged(0.6, 1)},
		{tagged(0.8, 2), tagged(0.7, 3)},
	}
	got := MergeRanked(lists, 3)
	if want := []float64{0.9, 0.8, 0.7}; len(got) != 3 ||
		got[0].Score.Delta != want[0] || got[1].Score.Delta != want[1] || got[2].Score.Delta != want[2] {
		t.Errorf("top-3 deltas = %v, want %v", deltasOf(got), want)
	}
	if got := MergeRanked(lists, 100); len(got) != 4 {
		t.Errorf("topN beyond total truncated to %d", len(got))
	}
}

func TestMergeRankedEmptyInputs(t *testing.T) {
	if got := MergeRanked(nil, 0); got != nil {
		t.Errorf("nil lists merged to %v", got)
	}
	if got := MergeRanked([][]Mapping{nil, {}, nil}, 5); got != nil {
		t.Errorf("all-empty lists merged to %v", got)
	}
	// Empty shards interleaved with live ones must just be skipped.
	got := MergeRanked([][]Mapping{nil, {tagged(0.8, 1)}, {}, {tagged(0.9, 2)}}, 0)
	if len(got) != 2 || got[0].ClusterID != 2 || got[1].ClusterID != 1 {
		t.Errorf("merge with empty shards = %v", got)
	}
}

func TestMergeRankedSingleListCopies(t *testing.T) {
	src := []Mapping{tagged(0.9, 1), tagged(0.8, 2)}
	got := MergeRanked([][]Mapping{nil, src}, 1)
	if len(got) != 1 || got[0].ClusterID != 1 {
		t.Fatalf("single-list merge = %v", got)
	}
	// The fast path must still return a fresh slice: merged reports are
	// mutated independently of the per-shard cached reports.
	got[0].ClusterID = 777
	if src[0].ClusterID != 1 {
		t.Error("merge aliased the input list")
	}
}

func TestMergeRankedDuplicatesPreserved(t *testing.T) {
	// A mapping handed in twice survives twice, exactly as Rank keeps
	// every entry of its argument.
	dup := tagged(0.75, 9)
	got := MergeRanked([][]Mapping{{dup}, {dup}}, 0)
	if len(got) != 2 || got[0].Score.Delta != 0.75 || got[1].Score.Delta != 0.75 {
		t.Fatalf("duplicates not preserved: %v", got)
	}
	assertRanked(t, got)
}
