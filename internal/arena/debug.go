package arena

import (
	"os"
	"sync/atomic"
)

// Debug-build buffer checking (opt-in): two holders of one recycled buffer
// is exactly the corruption the zero-copy borrowed-slice path risks, and in
// production it shows up as data corruption far from the bug. With checks
// on, released buffers are poisoned (PoisonByte) so a use-after-release
// reads garbage deterministically, and a stale or twice-released Handle
// panics (the refcount and the generation check). Holders may add checks
// of their own under the same switch: the device store checksums the
// blocks it adopts (internal/device).
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

// SetDebugChecks toggles buffer checking at runtime and returns the
// previous setting. Tests flip it on around the code under scrutiny; the
// hot path pays one predictable atomic load per check site when off.
func SetDebugChecks(on bool) bool {
	return debugChecks.Swap(on)
}

// DebugChecks reports whether buffer checking is on.
func DebugChecks() bool { return debugChecks.Load() }

// PoisonByte fills every buffer a last Release recycles while checks are
// on.
const PoisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
