package mapgen

import "container/heap"

// MergeRanked merges mapping lists that are each already ranked (the order
// produced by Rank) into one ranked list, truncated to the best topN entries
// when topN > 0.
//
// The merge compares heads with Rank's own comparator, so it returns the
// list Rank would make of the lists' concatenation, cut to topN. That is
// what makes a sharded answer the unsharded one: every shard is a view over
// one labelling index and searches whole clusters of one global
// clustering, so node and cluster IDs mean the same thing in every list.
// Mappings equal under the comparator — the same cluster and images, which
// only a list handed in twice produces — are all kept.
func MergeRanked(lists [][]Mapping, topN int) []Mapping {
	total := 0
	nonEmpty := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	want := total
	if topN > 0 && topN < want {
		want = topN
	}
	if nonEmpty == 1 {
		for _, l := range lists {
			if len(l) > 0 {
				return append([]Mapping(nil), l[:want]...)
			}
		}
	}

	h := make(mergeHeap, 0, nonEmpty)
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, mergeCursor{mappings: l})
		}
	}
	heap.Init(&h)
	out := make([]Mapping, 0, want)
	for len(out) < want {
		cur := &h[0]
		out = append(out, cur.mappings[cur.pos])
		cur.pos++
		if cur.pos == len(cur.mappings) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// mergeCursor is one input list's read position in the k-way merge.
type mergeCursor struct {
	mappings []Mapping
	pos      int
}

// mergeHeap is a min-heap whose top is the next mapping of the merged order:
// the Rank-first head.
type mergeHeap []mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return rankLess(&h[i].mappings[h[i].pos], &h[j].mappings[h[j].pos])
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeCursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
