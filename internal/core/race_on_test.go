//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a share of its Puts,
// so assertions that count on a pool hit are skipped under it.
const raceEnabled = true
