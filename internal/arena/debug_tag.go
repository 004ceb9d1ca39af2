//go:build labstor_debug

package arena

// Building with -tags labstor_debug turns buffer checking on from process
// start, before any init-ordered allocation.
func init() { debugChecks.Store(true) }
