//go:build !race

package qoz_test

const raceEnabled = false
