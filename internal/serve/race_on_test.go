//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop a share of its Puts,
// so allocation contracts that count on a pool are skipped under it.
const raceEnabled = true
