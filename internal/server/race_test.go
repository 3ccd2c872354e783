//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops Put items at
// random, so a warm pool may still hand out a fresh engine.
const raceEnabled = true
