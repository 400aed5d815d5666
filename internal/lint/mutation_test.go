package lint_test

import (
	"strings"
	"testing"

	"bufsim/internal/lint"
)

// TestSeededMutationDetected loads the deliberately seeded slab-aliasing
// bug in internal/tcp (build tag "slabmutation", excluded from every
// normal build) and demands that slabescape reports it: the analyzer
// proves itself against the real tree, not just against fixtures.
// Without the tag the package must stay clean — the same source the
// digest harness actually runs.
func TestSeededMutationDetected(t *testing.T) {
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "bufsim/internal/tcp"
	analyzers := []*lint.Analyzer{lint.SlabEscape}

	load := func(tags ...string) []lint.Finding {
		t.Helper()
		loader := lint.NewLoader(mod)
		loader.Tags = tags
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatal(err)
		}
		findings, err := lint.RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, p.PkgPath, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}

	if clean := load(); len(clean) != 0 {
		t.Fatalf("tcp without the mutation should be clean, got %v", clean)
	}

	seeded := load("slabmutation")
	found := false
	for _, f := range seeded {
		if f.Analyzer == "slabescape" &&
			strings.Contains(f.Message, "used after a call that can reach addRow") &&
			strings.Contains(f.Position.Filename, "slabmutation.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("slabescape did not report the seeded slab-aliasing mutation; findings: %v", seeded)
	}
}
