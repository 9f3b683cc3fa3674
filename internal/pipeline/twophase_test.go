package pipeline

import (
	"testing"

	"bellflower/internal/matcher"
	"bellflower/internal/schema"
)

func TestTwoPhaseStructureRescoring(t *testing.T) {
	// Two repository trees: one embeds title/author under a book-like
	// container (structurally faithful), the other scatters identically
	// named nodes under unrelated containers. Pure name matching ties
	// them; structural rescoring must rank the faithful one first.
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(book(title,author))"))
	repo.MustAdd(schema.MustParseSpec("misc(title,junk(author))"))
	r := NewRunner(repo)
	personal := schema.MustParseSpec("book(title,author)")

	opts := DefaultOptions()
	opts.Variant = VariantTree
	opts.Threshold = 0.4
	opts.MinSim = 0.4
	opts.StructureMatcher = matcher.PathContextMatcher{}
	opts.StructureWeight = 0.5

	rep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Mappings) == 0 {
		t.Fatalf("no mappings")
	}
	best := rep.Mappings[0]
	if best.Images[0].Tree().ID != 0 {
		t.Errorf("structural rescoring should prefer tree 0, best mapping in tree %d (Δ=%v)",
			best.Images[0].Tree().ID, best.Score.Delta)
	}

	// Without the structure matcher, confirm both trees yield mappings so
	// the test actually exercises a tie-break.
	plain := DefaultOptions()
	plain.Variant = VariantTree
	plain.Threshold = 0.4
	plain.MinSim = 0.4
	plainRep, err := r.Run(personal, plain)
	if err != nil {
		t.Fatal(err)
	}
	trees := map[int]bool{}
	for _, m := range plainRep.Mappings {
		trees[m.Images[0].Tree().ID] = true
	}
	if !trees[0] || !trees[1] {
		t.Skipf("fixture no longer ambiguous: trees %v", trees)
	}
}

func TestTwoPhaseDefaultWeight(t *testing.T) {
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(book(title,author))"))
	r := NewRunner(repo)
	personal := schema.MustParseSpec("book(title,author)")
	opts := DefaultOptions()
	opts.Variant = VariantTree
	opts.Threshold = 0.3
	opts.MinSim = 0.4
	opts.StructureMatcher = matcher.LeafContextMatcher{}
	// StructureWeight left at 0 -> defaults to 0.5 (must not zero out the
	// structural contribution or crash).
	rep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Mappings) == 0 {
		t.Errorf("no mappings with default structure weight")
	}
}

// Every top-N request runs the bounded search — with or without the
// deprecated AdaptiveTopN flag, which changes nothing — and returns exactly
// the enumerate-then-truncate list for less work.
func TestAdaptiveTopN(t *testing.T) {
	r := NewRunner(smallRepo())
	personal := personBooks()
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Variant = VariantMedium
	want := enumerateThenTruncate(t, r, personal, opts, 5)
	if len(want) != 5 {
		t.Fatalf("fixture enumerates %d mappings, want at least 5", len(want))
	}
	fullRep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TopN = 5
	plainRep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, "top-5", plainRep.Mappings, want)
	opts.AdaptiveTopN = true
	flaggedRep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, "top-5 with the deprecated flag", flaggedRep.Mappings, want)
	if flaggedRep.Counters != plainRep.Counters {
		t.Errorf("the deprecated flag changed the search: %+v vs %+v", flaggedRep.Counters, plainRep.Counters)
	}
	if plainRep.Counters.PartialMappings >= fullRep.Counters.PartialMappings {
		t.Errorf("bounded top-5 search did not save work: %d vs %d partials",
			plainRep.Counters.PartialMappings, fullRep.Counters.PartialMappings)
	}
}
