//go:build race

package shardrpc

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops items at random, so allocation budgets skip themselves.
const raceEnabled = true
