//go:build !race

package shardrpc

const raceEnabled = false
