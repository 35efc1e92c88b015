// Package sendcheck_test pins the send rule to the real fabric: the
// testdata drops the result of fractos/internal/fabric's Net.Send, so
// the test fails if that declaration loses its //fractos:mustuse
// marker, not only if the mustuse analyzer breaks.
package sendcheck_test

import (
	"testing"

	"fractos/tools/analyzers/analysistest"
	"fractos/tools/analyzers/mustuse"
)

func TestSendcheck(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "sc/sendcheck")
}
