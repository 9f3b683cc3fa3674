package labeling

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	b.Grow(130)
	for _, id := range []int{0, 1, 63, 64, 65, 127, 129} {
		if b.Has(id) {
			t.Fatalf("fresh bitset has %d set", id)
		}
		b.Set(id)
		if !b.Has(id) {
			t.Fatalf("Set(%d) not visible", id)
		}
	}
	b.Unset(64)
	if b.Has(64) || !b.Has(63) || !b.Has(65) {
		t.Error("Unset(64) disturbed neighbours or failed")
	}
}

func TestBitsetGrowPreservesBits(t *testing.T) {
	var b Bitset
	b.Grow(10)
	b.Set(3)
	b.Set(9)
	b.Grow(5) // never shrinks
	b.Grow(1000)
	if !b.Has(3) || !b.Has(9) {
		t.Error("Grow lost existing bits")
	}
	if b.Has(999) {
		t.Error("grown region not clear")
	}
	b.Set(999)
	if !b.Has(999) {
		t.Error("cannot set in grown region")
	}
}

// Property: a Bitset agrees with a map[int]bool under a random
// set/unset/query workload.
func TestBitsetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	var b Bitset
	b.Grow(n)
	ref := map[int]bool{}
	for op := 0; op < 20000; op++ {
		id := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			b.Set(id)
			ref[id] = true
		case 1:
			b.Unset(id)
			delete(ref, id)
		default:
			if b.Has(id) != ref[id] {
				t.Fatalf("op %d: Has(%d) = %v, map says %v", op, id, b.Has(id), ref[id])
			}
		}
	}
}
