//go:build race

package qoz_test

// raceEnabled tells the long differential tests that the race detector is
// on: it slows them about tenfold, so they keep to their -short subset
// and the package stays inside go test's default timeout.
const raceEnabled = true
