package strsim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// distance is the raw optimal-string-alignment edit distance between a and
// b on case-folded runes.
func distance(a, b string) int { return osaDistance(foldRunes(a), foldRunes(b)) }

func TestCompareStringFuzzyBasics(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "", 0},
		{"", "a", 0},
		{"book", "book", 1},
		{"Book", "book", 1},    // case-insensitive
		{"BOOK", "bOoK", 1},    // case-insensitive
		{"book", "bok", 0.75},  // 1 deletion over max len 4
		{"book", "boko", 0.75}, // 1 transposition over len 4
		{"abcd", "abdc", 0.75}, // transposition counts once
		{"abcd", "wxyz", 0},    // all substitutions
	}
	for _, tc := range tests {
		if got := CompareStringFuzzy(tc.a, tc.b); !close(got, tc.want) {
			t.Errorf("CompareStringFuzzy(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"ca", "abc", 3}, // classic OSA example (not 2 as in full DL)
		{"abcdef", "abdcef", 1},
		{"author", "authorName", 4},
	}
	for _, tc := range tests {
		if got := distance(tc.a, tc.b); got != tc.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"authorName", "author name"},
		{"author_name", "author name"},
		{"author-name", "author name"},
		{"AuthorName", "author name"},
		{"XMLSchema", "xml schema"},
		{"ISBN13", "isbn 13"},
		{"isbn_13-code", "isbn 13 code"},
		{"book", "book"},
		{"", ""},
		{"a.b:c/d", "a b c d"},
		{"HTTPServer2Go", "http server 2 go"},
	}
	for _, tc := range tests {
		got := strings.Join(Tokenize(tc.in), " ")
		if got != tc.want {
			t.Errorf("Tokenize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokenSimilarity(t *testing.T) {
	if got := TokenSimilarity("authorName", "author_name"); !close(got, 1) {
		t.Errorf("authorName vs author_name = %v, want 1", got)
	}
	if got := TokenSimilarity("nameOfAuthor", "authorName"); got < 0.6 {
		t.Errorf("reordered compound similarity = %v, want >= 0.6", got)
	}
	if got := TokenSimilarity("book", "zzz"); got > 0.3 {
		t.Errorf("dissimilar tokens = %v, want small", got)
	}
	if got := TokenSimilarity("", ""); !close(got, 1) {
		t.Errorf("empty vs empty = %v", got)
	}
	if got := TokenSimilarity("a", ""); !close(got, 0) {
		t.Errorf("a vs empty = %v", got)
	}
}

func TestTrigramSimilarity(t *testing.T) {
	if got := TrigramSimilarity("book", "book"); !close(got, 1) {
		t.Errorf("identical = %v", got)
	}
	if got := TrigramSimilarity("", ""); !close(got, 1) {
		t.Errorf("both empty = %v", got)
	}
	if got := TrigramSimilarity("book", ""); !close(got, 0) {
		t.Errorf("one empty = %v", got)
	}
	sim := TrigramSimilarity("address", "addresses")
	dis := TrigramSimilarity("address", "quantum")
	if sim <= dis {
		t.Errorf("trigram ordering wrong: sim=%v dis=%v", sim, dis)
	}
}

func randString(rng *rand.Rand, n int) string {
	letters := "abcdefgXYZ_-"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// Property: similarity is symmetric, bounded in [0,1], and 1 for identical
// strings (after folding).
func TestFuzzySimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randString(rng, rng.Intn(12))
		b := randString(rng, rng.Intn(12))
		sab := CompareStringFuzzy(a, b)
		sba := CompareStringFuzzy(b, a)
		if !close(sab, sba) {
			return false
		}
		if sab < 0 || sab > 1 {
			return false
		}
		if !close(CompareStringFuzzy(a, a), 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: OSA distance is a metric-ish: symmetric, zero iff equal
// (case-folded), and obeys the triangle inequality.
func TestDistanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randString(rng, rng.Intn(10))
		b := randString(rng, rng.Intn(10))
		c := randString(rng, rng.Intn(10))
		dab := distance(a, b)
		if dab != distance(b, a) {
			return false
		}
		if (dab == 0) != (strings.EqualFold(a, b)) {
			return false
		}
		if dab > distance(a, c)+distance(c, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a single character edit changes distance by at most 1.
func TestDistanceEditBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randString(rng, 1+rng.Intn(10))
		b := randString(rng, rng.Intn(10))
		// mutate a by one substitution
		ra := []byte(a)
		ra[rng.Intn(len(ra))] = "abcdefg"[rng.Intn(7)]
		a2 := string(ra)
		d1, d2 := distance(a, b), distance(a2, b)
		diff := d1 - d2
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompareStringFuzzy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CompareStringFuzzy("authorName", "nameOfTheAuthor")
	}
}
