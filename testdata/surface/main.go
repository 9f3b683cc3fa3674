package main

import (
	"sort"

	"fixture/internal/lib"
)

func main() {
	names := lib.ByName{"b", "a"}
	sort.Sort(names)
	println(lib.Used(lib.Config{Set: len(names)}))
}
