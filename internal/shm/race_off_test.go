//go:build !race

package shm

const raceEnabled = false
