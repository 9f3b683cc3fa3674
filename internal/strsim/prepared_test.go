package strsim

import (
	"math/rand"
	"testing"
)

// corpusNames mixes the shapes the matcher sees in practice: plain words,
// camelCase and delimited compounds, acronyms, digits, unicode, whitespace
// and empty strings.
var corpusNames = []string{
	"", " ", "a", "author", "authorName", "name_of_author", "AuthorName",
	"XMLName", "ISBN_13-code", "book", "bookTitle", "title", "Título",
	"naïveTitle", "café", "АвторИмя", "zip.code", "person/contact",
	"publicationYear2024", "e-mail", "Price", "priceAmount", "x",
	"aVeryLongElementNameThatKeepsGoingAndGoing", "shelf:label",
}

func randomName(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		// Random bytes, occasionally invalid UTF-8, to stress the folding.
		n := rng.Intn(12)
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	return corpusNames[rng.Intn(len(corpusNames))]
}

// TestPreparedBitIdentical pins every Scorer method over Prepared values to
// its string-based counterpart, bit for bit — the keyed matching kernel's
// correctness rests on this.
func TestPreparedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc Scorer
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		pa, pb := Prepare(a), Prepare(b)
		checks := []struct {
			name string
			want float64
			got  float64
		}{
			{"fuzzy", CompareStringFuzzy(a, b), sc.Fuzzy(&pa, &pb)},
			{"token", TokenSimilarity(a, b), sc.TokenSimilarity(&pa, &pb)},
		}
		for _, c := range checks {
			if c.want != c.got {
				t.Fatalf("%s(%q, %q): prepared %v != string %v", c.name, a, b, c.got, c.want)
			}
		}
	}
}

// TestFuzzyBoundedExact verifies the pruning contract: a pruned pair's true
// similarity never clears minSim, and an unpruned pair scores exactly like
// CompareStringFuzzy.
func TestFuzzyBoundedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scorer
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		minSim := []float64{-0.5, 0, 0.3, 0.45, 0.7, 0.95}[rng.Intn(6)]
		pa, pb := Prepare(a), Prepare(b)
		want := CompareStringFuzzy(a, b)
		got, pruned := sc.FuzzyBounded(&pa, &pb, minSim)
		if pruned {
			if want > minSim {
				t.Fatalf("FuzzyBounded(%q, %q, %v) pruned a pair with true sim %v", a, b, minSim, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("FuzzyBounded(%q, %q, %v) = %v, want %v", a, b, minSim, got, want)
		}
	}
}

// TestScorerZeroAllocs pins the warm-scorer allocation count at zero for
// every Scorer method, so the kernel's allocation win can't silently rot.
func TestScorerZeroAllocs(t *testing.T) {
	var sc Scorer
	pa, pb := Prepare("authorName"), Prepare("name_of_the_author")
	pc := Prepare("publicationYear2024")
	// Warm the scratch buffers.
	sc.Fuzzy(&pa, &pb)
	sc.TokenSimilarity(&pa, &pb)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Fuzzy", func() { sc.Fuzzy(&pa, &pb) }},
		{"FuzzyBounded", func() { sc.FuzzyBounded(&pa, &pc, 0.45) }},
		{"TokenSimilarity", func() { sc.TokenSimilarity(&pa, &pb) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s allocates %v times per warm call, want 0", c.name, n)
		}
	}
}

// TestScorerNonASCIIPairs exercises the widening path where one side is
// ASCII and the other is not.
func TestScorerNonASCIIPairs(t *testing.T) {
	var sc Scorer
	pairs := [][2]string{
		{"café", "cafe"}, {"Título", "titulo"}, {"АвторИмя", "author"},
		{"naïveTitle", "naiveTitle"}, {"café", "Café"},
	}
	for _, p := range pairs {
		pa, pb := Prepare(p[0]), Prepare(p[1])
		if got, want := sc.Fuzzy(&pa, &pb), CompareStringFuzzy(p[0], p[1]); got != want {
			t.Errorf("Fuzzy(%q, %q) = %v, want %v", p[0], p[1], got, want)
		}
		if got, want := sc.Fuzzy(&pb, &pa), CompareStringFuzzy(p[1], p[0]); got != want {
			t.Errorf("Fuzzy(%q, %q) = %v, want %v", p[1], p[0], got, want)
		}
	}
}

// FuzzPreparedEquivalence drives the prepared scorer against the string
// functions with fuzz-generated inputs.
func FuzzPreparedEquivalence(f *testing.F) {
	f.Add("authorName", "name_of_author")
	f.Add("", "x")
	f.Add("café", "cafe")
	f.Add("XMLName", "xml name")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 64 || len(b) > 64 {
			return // keep the quadratic OSA bounded
		}
		var sc Scorer
		pa, pb := Prepare(a), Prepare(b)
		if got, want := sc.Fuzzy(&pa, &pb), CompareStringFuzzy(a, b); got != want {
			t.Fatalf("Fuzzy(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := sc.TokenSimilarity(&pa, &pb), TokenSimilarity(a, b); got != want {
			t.Fatalf("TokenSimilarity(%q, %q) = %v, want %v", a, b, got, want)
		}
		got, pruned := sc.FuzzyBounded(&pa, &pb, 0.45)
		if want := CompareStringFuzzy(a, b); pruned {
			if want > 0.45 {
				t.Fatalf("FuzzyBounded(%q, %q) pruned sim %v > 0.45", a, b, want)
			}
		} else if got != want {
			t.Fatalf("FuzzyBounded(%q, %q) = %v, want %v", a, b, got, want)
		}
	})
}
