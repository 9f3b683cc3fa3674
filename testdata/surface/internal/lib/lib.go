// Package lib is the exported-surface scanner's fixture: each identifier
// below is, or is not, referenced in the way its comment says.
package lib

// Config is a settings struct: the scanner checks each of its exported
// fields.
type Config struct {
	// Set is set by the fixture's main package.
	Set int

	// Unset is referenced nowhere.
	Unset int
}

// Used is called by the fixture's main package.
func Used(cfg Config) int { return cfg.Set }

// BenchOnly is called only by the second, benchmark-like module.
func BenchOnly() {}

// Unused is called by nothing.
func Unused() {}

// TestOnly is called only by lib_test.go.
func TestOnly() {}

// ByName is passed to sort.Sort by the fixture's main package: its methods
// satisfy sort.Interface and nothing calls them directly.
type ByName []string

func (s ByName) Len() int           { return len(s) }
func (s ByName) Less(i, j int) bool { return s[i] < s[j] }
func (s ByName) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Stats is a struct the write rule checks: each exported field the fixture's
// non-test files read must also be written by them.
type Stats struct {
	// ReadOnly is read by the fixture's main package and written nowhere.
	ReadOnly int

	// TestWritten is read by the fixture's main package and written only
	// by lib_test.go.
	TestWritten int

	// Nested is written only through a nested selector, s.Nested.Depth = 1.
	Nested Inner

	// Counter is written only through its pointer-receiver method Inc.
	Counter Counter
}

// Inner is the type of Stats.Nested.
type Inner struct {
	// Depth is assigned by the fixture's main package.
	Depth int
}

// Counter is the type of Stats.Counter.
type Counter struct{ n int }

// Inc increments c; calling it on s.Counter takes the field's address.
func (c *Counter) Inc() { c.n++ }
