//go:build race

package graph

// raceEnabled reports a -race build, where sync.Pool drops Put items at
// random, so a Put followed by Get need not return the same engine.
const raceEnabled = true
