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
