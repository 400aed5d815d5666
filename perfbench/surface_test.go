package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The benchmark outlives the code it measures: later changes may reshape
// the simulator but may not edit the benchmark. So it binds only to
// surfaces that are meant to stay — layer constructors and methods of
// the packages below and the paperexp command-line flags — and never to
// the sharded engine, the deprecated aliases, the root package's
// Simulate* front ends or the experiment drivers and their observer
// fields.

// allowedImports are the simulator packages the benchmark may use.
var allowedImports = map[string]bool{
	"bufsim/internal/audit":    true,
	"bufsim/internal/metrics":  true,
	"bufsim/internal/packet":   true,
	"bufsim/internal/queue":    true,
	"bufsim/internal/sim":      true,
	"bufsim/internal/tcp":      true,
	"bufsim/internal/topology": true,
	"bufsim/internal/units":    true,
	"bufsim/internal/workload": true,
}

// forbiddenNames are identifiers of surfaces slated for removal.
var forbiddenNames = regexp.MustCompile(`\b(Shards|WithShards|ShardView|ShardCount|EnableShards|PostToAt|PostToAfter|TargetFor|ParseTrace|WithVariant|Simulate[A-Za-z]*|RunLongLived|ShortFlowAFCT|RunCCFamily|Parallelism|Resume|Ctx)\b`)

func TestBindsOnlyKeptSurfaces(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "run.sh")
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for i, line := range strings.Split(string(src), "\n") {
			if m := forbiddenNames.FindString(line); m != "" {
				t.Errorf("%s:%d names %s, a surface the benchmark must not bind to", name, i+1, m)
			}
		}
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "bufsim") && !allowedImports[path] {
				t.Errorf("%s imports %s; the benchmark may use only %v", name, path, allowedImports)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("checked only %d source files", checked)
	}
}

func TestSurfaceCheckCatchesForbiddenNames(t *testing.T) {
	for _, bad := range []string{"cfg.Shards = 4", "bufsim.WithShards(2)", "s.ShardView(1)", "bufsim.SimulateShortFlows(cfg)", "workload.ParseTrace(r)", "bufsim.WithVariant(v)"} {
		if !forbiddenNames.MatchString(bad) {
			t.Errorf("forbidden surface in %q not caught", bad)
		}
	}
	for _, ok := range []string{"sched.PostAt(at, f.Sender, tcp.OpStart, nil)", "topology.NewDumbbell(cfg)", "src.Bind(r.d, rng.Fork())"} {
		if forbiddenNames.MatchString(ok) {
			t.Errorf("kept surface in %q flagged", ok)
		}
	}
}
