package core

import (
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Debug-build buffer checking (opt-in): sync.Pool silently absorbs a
// double ReleaseBuf — two holders of the same recycled buffer is exactly
// the corruption the zero-copy borrowed-slice path risks, and in
// production it shows up as data corruption far from the bug. With checks
// on, released buffers are poisoned (0xDB) so a use-after-release reads
// garbage deterministically, a second ReleaseBuf of the same backing
// array panics, and stale BufHandles panic on access (handle.go check).
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
	prev := debugChecks.Load()
	debugChecks.Store(on)
	if !on {
		releasedBufs.Lock()
		releasedBufs.m = nil
		releasedBufs.Unlock()
	}
	return prev
}

const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// releasedBufs tracks the backing arrays currently sitting in the arena
// pools, keyed by their first-byte address. Debug mode only: ReleaseBuf
// registers, AcquireBuf unregisters, and a repeat registration is a
// double release.
var releasedBufs struct {
	sync.Mutex
	m map[unsafe.Pointer]bool
}

func bufKey(b []byte) unsafe.Pointer {
	if cap(b) == 0 {
		return nil
	}
	return unsafe.Pointer(&b[:1][0])
}

// debugNoteRelease records b as released; reports false (and the caller
// panics) if it was already in the released set.
func debugNoteRelease(b []byte) bool {
	k := bufKey(b)
	if k == nil {
		return true
	}
	releasedBufs.Lock()
	defer releasedBufs.Unlock()
	if releasedBufs.m == nil {
		releasedBufs.m = make(map[unsafe.Pointer]bool)
	}
	if releasedBufs.m[k] {
		return false
	}
	releasedBufs.m[k] = true
	return true
}

func debugNoteAcquire(b []byte) {
	k := bufKey(b)
	if k == nil {
		return
	}
	releasedBufs.Lock()
	delete(releasedBufs.m, k)
	releasedBufs.Unlock()
}
