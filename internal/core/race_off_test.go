//go:build !race

package core

// raceEnabled reports whether the race detector is active. The race
// runtime makes sync.Pool intentionally drop items, so steady-state
// allocation counts are only meaningful without it.
const raceEnabled = false
