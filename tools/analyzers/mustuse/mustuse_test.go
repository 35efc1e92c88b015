package mustuse_test

import (
	"testing"

	"fractos/tools/analyzers/analysistest"
	"fractos/tools/analyzers/mustuse"
)

func TestMustuse(t *testing.T) {
	analysistest.Run(t, "testdata", mustuse.Analyzer, "user")
}
