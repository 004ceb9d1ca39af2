//go:build !race

package telemetry

import "testing"

// TestAttributionFoldAllocContract pins the always-on attribution work — one
// Folder.Fold against a hot slot (a flush every folderFlushEvery requests
// included) plus one TailEstimator.Observe — at zero heap allocations per
// request. Not built under the race detector, like the runtime's contracts.
func TestAttributionFoldAllocContract(t *testing.T) {
	f := NewProfile().NewFolder(testOpName)
	est := NewTailEstimator(DefaultTailQuantile)
	i := 0
	request := func() {
		// Latencies vary so the estimator takes both branches.
		lat := int64(1000 + i%512)
		i++
		f.Fold(1, "msg::/attr", 3, lat, lat/4, lat/2, false)
		est.Observe(float64(lat))
	}
	for j := 0; j < 2*folderFlushEvery; j++ {
		request() // creates the slot and the shared tables' entries, past warm-up
	}
	if n := testing.AllocsPerRun(10*folderFlushEvery, request); n != 0 {
		t.Errorf("fold + tail decision allocates %v objects per request, want 0", n)
	}
}
