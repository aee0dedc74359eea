//go:build !race

package countq_test

const raceEnabled = false
