//go:build race

package isql

// raceEnabled skips the enumerating comparisons whose memory the race
// detector multiplies several times over.
const raceEnabled = true
