package analysis_test

import (
	"testing"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/analysistest"
)

func TestDirectives(t *testing.T) {
	suite := []*analysis.Analyzer{{Name: "af", Directives: []string{"hotpath"}, Waiver: "alloc-ok"}}
	analysistest.Run(t, "testdata", analysis.Directives(suite), "directives")
}
