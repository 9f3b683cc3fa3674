//go:build race

package pipeline

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so the zero-allocation pins skip themselves.
const raceEnabled = true
