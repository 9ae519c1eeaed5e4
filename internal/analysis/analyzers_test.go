package analysis_test

import (
	"testing"

	"busarb/internal/analysis"
	"busarb/internal/analysis/analysistest"
)

// Each analyzer's golden testdata demonstrates at least one flagged
// violation, at least one legal counterpart, and the //arblint:allow
// escape hatch (a consumed allow and an unused one that reports
// itself).

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.Determinism, "testdata/src/determinism")
}

func TestNilProbe(t *testing.T) {
	analysistest.Run(t, analysis.NilProbe, "testdata/src/nilprobe")
}

func TestValidateCall(t *testing.T) {
	analysistest.Run(t, analysis.ValidateCall, "testdata/src/validatecall")
}

func TestSeedSrc(t *testing.T) {
	analysistest.Run(t, analysis.SeedSrc, "testdata/src/seedsrc")
}

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, analysis.AllocFree, "testdata/src/allocfree")
}

func TestSyncGuard(t *testing.T) {
	analysistest.Run(t, analysis.SyncGuard, "testdata/src/syncguard")
}

func TestGoroLeak(t *testing.T) {
	analysistest.Run(t, analysis.GoroLeak, "testdata/src/goroleak")
}

// TestAnalyzerScope pins the package filters: determinism binds in the
// simulator and cmd packages only, nilprobe in simulator packages only,
// seedsrc everywhere but the blessed internal/rng, validatecall
// everywhere.
func TestAnalyzerScope(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		path     string
		want     bool
	}{
		{analysis.Determinism, "busarb/internal/bussim", true},
		{analysis.Determinism, "busarb/cmd/benchjson", true},
		{analysis.Determinism, "busarb/internal/report", false},
		{analysis.Determinism, "busarb/internal/obs", false},
		{analysis.Determinism, "busarb/internal/grant", true},
		{analysis.Determinism, "busarb/internal/core", true},
		{analysis.Determinism, "busarb/internal/bitarb", true},
		{analysis.Determinism, "busarb/internal/arbd", false},
		{analysis.Determinism, "busarb/internal/arbd/codec", true},
		{analysis.Determinism, "busarb/internal/arbd/cluster", true},
		{analysis.Determinism, "busarb/internal/topo", true},
		{analysis.NilProbe, "busarb/internal/topo", true},
		{analysis.NilProbe, "busarb/internal/grant", true},
		{analysis.NilProbe, "busarb/internal/core", true},
		{analysis.NilProbe, "busarb/internal/arbd/codec", true},
		// The cluster package rides simPackagePaths into nilprobe scope
		// too; it emits no probes, so the bind is vacuous but harmless.
		{analysis.NilProbe, "busarb/internal/arbd/cluster", true},
		{analysis.NilProbe, "busarb/internal/bitarb", true},
		{analysis.NilProbe, "busarb/internal/arbd", false},
		{analysis.NilProbe, "busarb/internal/cyclesim", true},
		{analysis.NilProbe, "busarb/internal/obs", false},
		{analysis.NilProbe, "busarb/cmd/arbtrace", false},
		{analysis.SeedSrc, "busarb/internal/rng", false},
		{analysis.SeedSrc, "busarb/internal/workload", true},
		{analysis.AllocFree, "busarb/internal/bitarb", true},
		{analysis.AllocFree, "busarb/internal/arbd/codec", true},
		{analysis.AllocFree, "busarb/internal/grant", true},
		{analysis.AllocFree, "busarb/internal/topo", true},
		{analysis.AllocFree, "busarb/internal/arbd", false},
		{analysis.AllocFree, "busarb/internal/sim", true},
		{analysis.GoroLeak, "busarb/internal/arbd", true},
		{analysis.GoroLeak, "busarb/internal/arbd/cluster", true},
		{analysis.GoroLeak, "busarb/client", true},
		{analysis.GoroLeak, "busarb/internal/arbd/codec", false},
		{analysis.GoroLeak, "busarb/internal/sim", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
	if analysis.ValidateCall.AppliesTo != nil {
		t.Error("validatecall should apply to every package (nil AppliesTo)")
	}
	if analysis.SyncGuard.AppliesTo != nil {
		t.Error("syncguard should apply to every package (nil AppliesTo): unannotated packages cost nothing")
	}
}
