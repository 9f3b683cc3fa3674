package labeling

// Bitset is a dense bitset over a compact integer ID space — repository
// node IDs or view-local IDs, both of which number 0..Len()-1. The mapping
// generator uses it for per-cluster membership and the 1-to-1 "used image"
// check, replacing per-search map[int]bool allocations: a Bitset is grown
// once to the repository size and reused across searches, so the warm path
// touches no allocator.
//
// The zero value is an empty bitset; Grow it before use. A Bitset is not
// safe for concurrent mutation — each search owns its own (pooled) set.
type Bitset struct {
	words []uint64
}

// Grow extends the bitset to hold IDs 0..n-1, preserving existing bits.
// It never shrinks.
func (b *Bitset) Grow(n int) {
	want := (n + 63) / 64
	if want <= len(b.words) {
		return
	}
	if want <= cap(b.words) {
		b.words = b.words[:want]
		return
	}
	grown := make([]uint64, want)
	copy(grown, b.words)
	b.words = grown
}

// Set marks id.
func (b *Bitset) Set(id int) { b.words[id>>6] |= 1 << uint(id&63) }

// Unset clears id.
func (b *Bitset) Unset(id int) { b.words[id>>6] &^= 1 << uint(id&63) }

// Has reports whether id is marked.
func (b *Bitset) Has(id int) bool { return b.words[id>>6]&(1<<uint(id&63)) != 0 }
