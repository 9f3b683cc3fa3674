package main

import (
	"sort"

	"fixture/internal/lib"
)

func main() {
	names := lib.ByName{"b", "a"}
	sort.Sort(names)
	println(lib.Used(lib.Config{Set: len(names)}))

	var s lib.Stats
	s.Nested.Depth = 1
	s.Counter.Inc()
	println(s.ReadOnly, s.TestWritten)
}
