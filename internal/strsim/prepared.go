package strsim

import (
	"bytes"
	"unicode/utf8"
)

// Prepared is the precomputed similarity input for one string: its folded
// form (byte-level when pure ASCII) and folded token list. Preparing once
// and scoring many times removes the per-pair fold/tokenize work from the
// matching kernel; every Scorer method over Prepared values returns results
// bit-identical to its string-based counterpart, so callers may mix the two
// freely.
type Prepared struct {
	f      foldedText
	tokens []foldedText
}

// foldedText is a case-folded string in its cheapest exact representation:
// plain bytes when every folded rune is ASCII, runes otherwise. Exactly one
// of the two slices is non-nil.
type foldedText struct {
	ascii []byte
	runes []rune
}

func (f *foldedText) length() int {
	if f.ascii != nil {
		return len(f.ascii)
	}
	return len(f.runes)
}

func newFoldedText(s string) foldedText {
	runes := foldRunes(s)
	for _, r := range runes {
		if r >= utf8.RuneSelf {
			return foldedText{runes: runes}
		}
	}
	b := make([]byte, len(runes))
	for i, r := range runes {
		b[i] = byte(r)
	}
	return foldedText{ascii: b}
}

// Prepare computes the prepared form of s. Tokens are re-folded exactly the
// way CompareStringFuzzy folds them, so token-wise scores stay identical.
func Prepare(s string) Prepared {
	toks := Tokenize(s)
	pt := make([]foldedText, len(toks))
	for i, t := range toks {
		pt[i] = newFoldedText(t)
	}
	return Prepared{f: newFoldedText(s), tokens: pt}
}

// MemoryBytes estimates the heap footprint of the prepared form, including
// slice headers.
func (p *Prepared) MemoryBytes() int64 {
	b := int64(len(p.f.ascii) + 4*len(p.f.runes))
	for i := range p.tokens {
		t := &p.tokens[i]
		b += 48 + int64(len(t.ascii)+4*len(t.runes))
	}
	return b + 72 // the Prepared value itself
}

// Scorer evaluates similarities over Prepared values with reusable scratch
// buffers: once the buffers are warm, a similarity call performs no heap
// allocation. A Scorer is not safe for concurrent use — give each worker
// goroutine its own.
type Scorer struct {
	prev2, prev, cur []int  // OSA rolling rows
	used             []bool // token greedy-match scratch
	ra, rb           []rune // ASCII widening scratch for mixed-width pairs
}

func (sc *Scorer) rows(lb int) (p2, p, c []int) {
	if cap(sc.prev2) <= lb {
		sc.prev2 = make([]int, lb+1)
		sc.prev = make([]int, lb+1)
		sc.cur = make([]int, lb+1)
	}
	return sc.prev2[:lb+1], sc.prev[:lb+1], sc.cur[:lb+1]
}

// widen returns the rune view of f, decoding ASCII bytes into the provided
// scratch slice when needed.
func widen(f *foldedText, scratch *[]rune) []rune {
	if f.runes != nil {
		return f.runes
	}
	buf := *scratch
	if cap(buf) < len(f.ascii) {
		buf = make([]rune, len(f.ascii))
	}
	buf = buf[:len(f.ascii)]
	for i, c := range f.ascii {
		buf[i] = rune(c)
	}
	*scratch = buf
	return buf
}

func (sc *Scorer) osa(a, b *foldedText) int {
	if a.ascii != nil && b.ascii != nil {
		p2, p, c := sc.rows(len(b.ascii))
		return osaInto(a.ascii, b.ascii, p2, p, c)
	}
	ra := widen(a, &sc.ra)
	rb := widen(b, &sc.rb)
	p2, p, c := sc.rows(len(rb))
	return osaInto(ra, rb, p2, p, c)
}

// fuzzyFolded is CompareStringFuzzy over folded text.
func (sc *Scorer) fuzzyFolded(a, b *foldedText) float64 {
	la, lb := a.length(), b.length()
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	if a.ascii != nil && b.ascii != nil && bytes.Equal(a.ascii, b.ascii) {
		return 1 // d = 0; identical to the full computation
	}
	d := sc.osa(a, b)
	max := la
	if lb > max {
		max = lb
	}
	return 1 - float64(d)/float64(max)
}

// Fuzzy is CompareStringFuzzy over prepared forms.
func (sc *Scorer) Fuzzy(a, b *Prepared) float64 { return sc.fuzzyFolded(&a.f, &b.f) }

// FuzzyBounded is Fuzzy with a length-difference early exit: when the upper
// bound 1 − |la−lb|/max(la,lb) cannot exceed minSim, the OSA pass is skipped
// and pruned is true. The bound is exact — the OSA distance is at least the
// length difference — so a pruned pair's true similarity is ≤ minSim and a
// `sim > minSim` filter discards it either way; pruning never changes which
// candidates are kept or their scores.
func (sc *Scorer) FuzzyBounded(a, b *Prepared, minSim float64) (sim float64, pruned bool) {
	la, lb := a.f.length(), b.f.length()
	if la == 0 && lb == 0 {
		return 1, false
	}
	max, diff := la, la-lb
	if lb > max {
		max = lb
	}
	if diff < 0 {
		diff = -diff
	}
	if bound := 1 - float64(diff)/float64(max); bound <= minSim {
		return 0, true
	}
	return sc.fuzzyFolded(&a.f, &b.f), false
}

// TokenSimilarity is the token-wise similarity over prepared forms.
func (sc *Scorer) TokenSimilarity(a, b *Prepared) float64 {
	ta, tb := a.tokens, b.tokens
	if len(ta) == 0 || len(tb) == 0 {
		if len(ta) == len(tb) {
			return 1
		}
		return 0
	}
	if len(ta) > len(tb) {
		ta, tb = tb, ta
	}
	if cap(sc.used) < len(tb) {
		sc.used = make([]bool, len(tb))
	}
	used := sc.used[:len(tb)]
	for j := range used {
		used[j] = false
	}
	total := 0.0
	for i := range ta {
		best, bestJ := 0.0, -1
		for j := range tb {
			if used[j] {
				continue
			}
			if s := sc.fuzzyFolded(&ta[i], &tb[j]); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
		}
		total += best
	}
	return total / float64(len(tb))
}
