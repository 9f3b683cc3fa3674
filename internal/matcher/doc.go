// Package matcher implements step ② of the common schema-matching
// architecture (Fig. 2 of the paper): element matchers that cross-compare
// every personal-schema element with every repository element and emit the
// sets of mapping elements MEn (step ③).
//
// Matchers are divided, as in the paper, into localized matchers (name,
// synonym, datatype — local node properties only) and structure matchers
// (path, child and leaf context), which the pipeline applies in the
// two-phase configuration to rescore candidates inside each cluster.
// Scores from several matchers are combined with a weighted average
// (Combined), the combining technique of COMA/LSD.
//
// # Concurrency
//
// Every matcher in this package is immutable after construction (the
// SynonymMatcher's dictionary is mutable only through AddGroup, which
// callers invoke during setup) and safe for concurrent Similarity calls —
// FindCandidates may be running on many goroutines against one matcher at
// once. A NameIndex and its Vocabularies are shared the same way: the
// index's score-row memo is mutex-guarded, its stored rows are immutable and
// shared by every caller that hits them, and each call cuts the Elems of its
// result from a slab no other live Candidates holds, so no two Candidates
// alias; Candidates.Release hands the slab back for reuse, after which the
// released value must not be read. Candidates values returned by
// FindCandidates are read-only snapshots; Rescore builds a new
// Candidates rather than mutating its input. Custom Matcher implementations
// supplied through pipeline.Options.Matcher must offer the same guarantee
// when used with the serve package, whose worker pools share one Options
// value.
package matcher
