//go:build race

package circuits

// raceEnabled reports a -race build, whose runtime allocates on its own.
const raceEnabled = true
