//go:build !race

package isql

const raceEnabled = false
