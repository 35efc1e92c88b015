package allocfree_test

import (
	"testing"

	"fractos/tools/analyzers/allocfree"
	"fractos/tools/analyzers/analysistest"
)

func TestAllocfree(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.Analyzer, "af/allocfree")
}

// TestWholeArena pins the device-path rule to the real declarations:
// its testdata calls fractos/internal/proc's Process.Arena and
// fractos/internal/fabric's Endpoint.Arena, so the test fails if either
// loses its //fractos:whole-arena marker, not only if the analyzer
// breaks. The same calls outside a device path are clean.
func TestWholeArena(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.Analyzer, "af/internal/device/staging", "af/internal/app/staging")
}
