package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A failing run must still stop and flush the CPU profile: run returns its
// exit status, so the deferred writers fire, where os.Exit skipped them.
func TestRunWritesCPUProfileOnFailure(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	os.Args = []string{"labbench", "-exp", "no-such-experiment", "-cpuprofile", prof}
	if code := run(); code != 1 {
		t.Fatalf("run() = %d for an unknown experiment, want 1", code)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after a failed run: %v, %v; want a non-empty file", fi, err)
	}
}
