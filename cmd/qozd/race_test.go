//go:build race

package main

// raceEnabled tells the allocation gates that the race detector is on: its
// shadow allocations count in runtime.MemStats.TotalAlloc, and sync.Pool
// drops a quarter of what it is given, so byte bounds mean nothing there.
const raceEnabled = true
