// Package strsim provides the fuzzy string similarity used by Bellflower's
// element matcher.
//
// The paper implements its single element matcher with the closed-source
// CompareStringFuzzy function, described as "a normalized string similarity
// based on character substitution, insertion, exclusion, and transposition".
// Those four edit operations define the Damerau–Levenshtein distance
// (optimal string alignment variant); CompareStringFuzzy here is the
// canonical open reimplementation of that description: 1 - dist/maxLen on
// case-folded input.
//
// The package additionally offers token-aware and n-gram similarities used
// by the extended matchers (XML element names are frequently camelCase or
// delimiter-separated compounds such as "authorName" or "author_name").
package strsim

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CompareStringFuzzy returns a normalized similarity in [0, 1] between a and
// b: 1 means equal (after case folding), 0 means maximally dissimilar. The
// measure is 1 - OSA(a, b)/max(len(a), len(b)) where OSA is the optimal
// string alignment distance over substitutions, insertions, deletions
// ("exclusions") and adjacent transpositions.
func CompareStringFuzzy(a, b string) float64 {
	ra := foldRunes(a)
	rb := foldRunes(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	d := osaDistance(ra, rb)
	max := la
	if lb > max {
		max = lb
	}
	return 1 - float64(d)/float64(max)
}

func foldRunes(s string) []rune {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		out = append(out, unicode.ToLower(r))
	}
	return out
}

// osaDistance computes the optimal string alignment distance (restricted
// Damerau–Levenshtein: each substring may be transposed at most once) using
// three rolling rows.
func osaDistance(a, b []rune) int {
	lb := len(b)
	return osaInto(a, b, make([]int, lb+1), make([]int, lb+1), make([]int, lb+1))
}

// osaInto is osaDistance over caller-provided rolling rows (each len(b)+1
// long), so warm callers allocate nothing. The byte and rune instantiations
// produce identical distances on ASCII input — folding maps 'A'..'Z' to
// 'a'..'z' and leaves other ASCII untouched — which keeps the byte-level
// fast path exact.
func osaInto[T byte | rune](a, b []T, prev2, prev, cur []int) int {
	la, lb := len(a), len(b)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution / match
			if v := prev[j] + 1; v < m {
				m = v // deletion
			}
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m {
					m = v // transposition
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// Tokenize splits an element name into lower-case word tokens: camelCase
// humps, digit runs, and '_', '-', '.', ':', '/' and whitespace delimiters
// all break tokens. "authorName" -> ["author","name"];
// "ISBN_13-code" -> ["isbn","13","code"].
func Tokenize(name string) []string {
	var tokens []string
	var buf [32]rune // reused across tokens; spills to the heap only for very long tokens
	cur := buf[:0]
	flush := func() {
		if len(cur) > 0 {
			tokens = append(tokens, string(cur))
			cur = cur[:0]
		}
	}
	// Single pass over the UTF-8 bytes: the previous rune is carried and the
	// next rune is peeked in place, so the name is never converted to []rune.
	prev := rune(-1) // -1 = start of string
	for i := 0; i < len(name); {
		r, size := utf8.DecodeRuneInString(name[i:])
		next := i + size
		switch {
		case r == '_' || r == '-' || r == '.' || r == ':' || r == '/' || unicode.IsSpace(r):
			flush()
		case unicode.IsUpper(r):
			// Start a new token at a lower->Upper boundary, and at the last
			// upper of an acronym followed by a lower (XMLName -> xml name).
			if prev >= 0 {
				nextLower := false
				if next < len(name) {
					nr, _ := utf8.DecodeRuneInString(name[next:])
					nextLower = unicode.IsLower(nr)
				}
				if unicode.IsLower(prev) || unicode.IsDigit(prev) || (unicode.IsUpper(prev) && nextLower) {
					flush()
				}
			}
			cur = append(cur, unicode.ToLower(r))
		case unicode.IsDigit(r):
			if prev >= 0 && !unicode.IsDigit(prev) {
				flush()
			}
			cur = append(cur, r)
		default:
			if prev >= 0 && unicode.IsDigit(prev) {
				flush()
			}
			cur = append(cur, unicode.ToLower(r))
		}
		prev = r
		i = next
	}
	flush()
	return tokens
}

// TokenSimilarity compares two element names token-wise: each token of the
// shorter token list is greedily matched to its most similar counterpart
// (by CompareStringFuzzy) and the pair scores are averaged, weighted by the
// fraction of tokens covered. It rewards reordered compounds
// ("authorName" vs "name_of_author") that pure edit distance punishes.
func TokenSimilarity(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 || len(tb) == 0 {
		if len(ta) == len(tb) {
			return 1
		}
		return 0
	}
	if len(ta) > len(tb) {
		ta, tb = tb, ta
	}
	used := make([]bool, len(tb))
	total := 0.0
	for _, x := range ta {
		best, bestJ := 0.0, -1
		for j, y := range tb {
			if used[j] {
				continue
			}
			if s := CompareStringFuzzy(x, y); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
		}
		total += best
	}
	// Average over the longer list: unmatched tokens dilute the score.
	return total / float64(len(tb))
}

// TrigramSimilarity returns the Jaccard similarity of the character trigram
// sets of a and b (case-folded, padded with '^' and '$'). It is cheap and
// robust for long names; the approximate-string-join literature the paper
// cites [10] builds on exactly this kind of q-gram overlap.
func TrigramSimilarity(a, b string) float64 {
	return trigramJaccard(trigramSet(a), trigramSet(b))
}

// trigramSet returns the sorted distinct trigrams of the padded, case-folded
// text. The sorted-slice representation replaces the earlier per-call map:
// prepared forms can share it and set operations run as linear merges.
func trigramSet(s string) []string {
	folded := strings.ToLower(strings.TrimSpace(s))
	if folded == "" {
		return nil
	}
	padded := "^^" + folded + "$$"
	runes := []rune(padded)
	out := make([]string, 0, len(runes))
	for i := 0; i+3 <= len(runes); i++ {
		out = append(out, string(runes[i:i+3]))
	}
	sort.Strings(out)
	w := 0
	for i, g := range out {
		if i == 0 || g != out[w-1] {
			out[w] = g
			w++
		}
	}
	return out[:w]
}

// trigramJaccard is the Jaccard similarity of two sorted distinct trigram
// slices, computed as a linear merge.
func trigramJaccard(ga, gb []string) float64 {
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(ga) && j < len(gb) {
		switch {
		case ga[i] == gb[j]:
			inter++
			i++
			j++
		case ga[i] < gb[j]:
			i++
		default:
			j++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}
