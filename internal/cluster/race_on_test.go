//go:build race

package cluster

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops items at random, so the allocation pin skips itself.
const raceEnabled = true
