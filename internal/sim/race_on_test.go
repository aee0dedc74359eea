//go:build race

package sim_test

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so a one-shot run may start on a fresh scratch and the
// warm-run allocation gates do not apply.
const raceEnabled = true
