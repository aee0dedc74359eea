//go:build race

package countq_test

// raceEnabled: the race detector instruments every memory access and
// drops sync.Pool Puts on purpose, so cost gates do not apply under it.
const raceEnabled = true
