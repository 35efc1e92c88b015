package mustuse_test

import (
	"testing"

	"fractos/tools/analyzers/analysistest"
	"fractos/tools/analyzers/mustuse"
)

func TestMustuse(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "user")
}

// TestRegcheck pins the registration rule to the real registry: its
// testdata drops the errors of fractos/internal/services's
// Client.Register and Deregister, so the test fails if either
// declaration loses its //fractos:mustuse marker, not only if the
// analyzer breaks.
func TestRegcheck(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "pinned/registry")
}

// TestSendcheck pins the send rule to the real fabric the same way: its
// testdata drops the result of fractos/internal/fabric's Net.Send.
func TestSendcheck(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "pinned/send")
}
