//go:build race

package shm

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so pooled paths allocate and the allocation gates do
// not apply.
const raceEnabled = true
