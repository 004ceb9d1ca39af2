//go:build race

package vtime

// raceEnabled: the race detector slows the single-goroutine reference-model
// comparison about fifty-fold, so it runs fewer seeds under it.
const raceEnabled = true
