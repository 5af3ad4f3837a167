package ctxflow_test

import (
	"testing"

	"github.com/bertha-net/bertha/internal/analysis/analysistest"
	"github.com/bertha-net/bertha/internal/analysis/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "ctxflow_a", ctxflow.Analyzer, "ctxflow_dep")
}

// TestCtxflowCFGPrecision pins the reachability filtering of the CFG
// port: blocking operations in dead code no longer flag dropped-ctx,
// while reachable ones still do.
func TestCtxflowCFGPrecision(t *testing.T) {
	analysistest.Run(t, "ctxflow_cfg", ctxflow.Analyzer)
}
