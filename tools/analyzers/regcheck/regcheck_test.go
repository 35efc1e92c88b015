// Package regcheck_test pins the registration rule to the real
// registry: the testdata drops the errors of
// fractos/internal/services's Client.Register and Deregister, so the
// test fails if either declaration loses its //fractos:mustuse marker,
// not only if the mustuse analyzer breaks.
package regcheck_test

import (
	"testing"

	"fractos/tools/analyzers/analysistest"
	"fractos/tools/analyzers/mustuse"
)

func TestRegcheck(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "rc/regcheck")
}
