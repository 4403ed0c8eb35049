//go:build !race

package cryowire

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
