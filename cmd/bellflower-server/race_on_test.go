//go:build race

package main

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops items at random, so allocation ceilings are looser.
const raceEnabled = true
