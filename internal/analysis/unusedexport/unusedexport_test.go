package unusedexport_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/unusedexport"
)

func TestUnusedExport(t *testing.T) {
	analysistest.Run(t, "testdata", unusedexport.Analyzer, "a", "benchroot", "probetest")
}
