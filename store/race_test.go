//go:build race

package store

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of what it is given.
const raceEnabled = true
