package mapgen

import (
	"fmt"
	"math/rand"
	"testing"

	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// FuzzMergeRanked drives the k-way ranked merge with randomized input
// lists (seeded, so every failure reproduces) and checks the merge
// contract the Router depends on:
//
//   - merging equals concatenating the lists, ranking the concatenation
//     with Rank and truncating it to topN, compared rank by rank on the
//     comparator's keys (Δ, cluster ID, image IDs);
//   - every output mapping is one of the inputs, never duplicated or
//     invented, and each input list's mappings keep their relative order.
//
// Δ, cluster IDs and image IDs come from coarse grids, so ties at every
// level of the comparator are common. Sims[0] tags each mapping with
// 1000*list + position, which the merge must pass through untouched.
func FuzzMergeRanked(f *testing.F) {
	f.Add(int64(1), uint8(3), int16(0))
	f.Add(int64(2), uint8(1), int16(5))
	f.Add(int64(3), uint8(6), int16(3))
	f.Add(int64(42), uint8(0), int16(-1))
	f.Fuzz(func(t *testing.T, seed int64, numLists uint8, topN int16) {
		rng := rand.New(rand.NewSource(seed))
		nodes := []*schema.Node{{ID: 0}, {ID: 1}, {ID: 2}}
		lists := make([][]Mapping, int(numLists)%7)
		var all []Mapping
		for li := range lists {
			for i := rng.Intn(9); i > 0; i-- {
				lists[li] = append(lists[li], Mapping{
					Score:     objective.Score{Delta: float64(rng.Intn(5)) / 4},
					ClusterID: rng.Intn(3),
					Images:    []*schema.Node{nodes[rng.Intn(3)], nodes[rng.Intn(3)]},
				})
			}
			Rank(lists[li])
			for i := range lists[li] {
				lists[li][i].Sims = []float64{float64(1000*li + i)}
			}
			all = append(all, lists[li]...)
		}

		merged := MergeRanked(lists, int(topN))
		Rank(all)
		if tn := int(topN); tn > 0 && tn < len(all) {
			all = all[:tn]
		}
		if len(merged) != len(all) {
			t.Fatalf("merged %d mappings, concatenate-then-Rank keeps %d (topN %d)", len(merged), len(all), topN)
		}
		same := func(a, b *Mapping) bool { return !rankLess(a, b) && !rankLess(b, a) }
		key := func(m *Mapping) string {
			return fmt.Sprintf("Δ=%v cluster %d images %d,%d", m.Score.Delta, m.ClusterID, m.Images[0].ID, m.Images[1].ID)
		}
		lastPos := make(map[int]int) // list -> last seen position
		seen := make(map[int]bool)   // tags
		for i := range merged {
			m := &merged[i]
			if !same(m, &all[i]) {
				t.Fatalf("rank %d: %s, concatenate-then-Rank has %s", i, key(m), key(&all[i]))
			}
			tag := int(m.Sims[0])
			li, pos := tag/1000, tag%1000
			if li >= len(lists) || pos >= len(lists[li]) || !same(m, &lists[li][pos]) {
				t.Fatalf("rank %d: mapping tag %d does not identify an input", i, tag)
			}
			if seen[tag] {
				t.Fatalf("rank %d: mapping tag %d emitted twice", i, tag)
			}
			seen[tag] = true
			if last, ok := lastPos[li]; ok && pos <= last {
				t.Fatalf("rank %d: list %d position %d after %d (stability broken)", i, li, pos, last)
			}
			lastPos[li] = pos
		}
	})
}
