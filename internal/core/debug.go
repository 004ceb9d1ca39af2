package core

import (
	"os"
	"sync/atomic"
)

// Debug-build buffer checking (opt-in): two holders of one recycled buffer
// is exactly the corruption the zero-copy borrowed-slice path risks, and in
// production it shows up as data corruption far from the bug. With checks
// on, released buffers are poisoned (0xDB) so a use-after-release reads
// garbage deterministically, and a stale or twice-released BufHandle
// panics (handle.go: the refcount and the generation check).
//
// Enable with the LABSTOR_DEBUG=1 environment variable, the labstor_debug
// build tag (debug_tag.go), or SetDebugChecks(true) from a test.

var debugChecks atomic.Bool

func init() {
	switch os.Getenv("LABSTOR_DEBUG") {
	case "", "0", "false", "off":
	default:
		debugChecks.Store(true)
	}
}

// SetDebugChecks toggles buffer poison/double-release checking at runtime
// and returns the previous setting. Tests flip it on around the code
// under scrutiny; the hot path pays one predictable atomic load per
// check site when off.
func SetDebugChecks(on bool) bool {
	return debugChecks.Swap(on)
}

const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
