//go:build race

package repro

// raceEnabled reports a -race build, whose detector disables sync.Pool
// and so changes allocation counts.
const raceEnabled = true
