package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTool compiles the buflint binary into dir and returns its path.
func buildTool(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "buflint")
	cmd := exec.Command("go", "build", "-o", bin, "bufsim/cmd/buflint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building buflint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/buflint -> repo root
}

// writeModule materializes a synthetic module. Its module path must be
// "bufsim" so the analyzers' AppliesTo scopes treat it as the simulator.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const dirtySource = `package bufsim

import (
	"fmt"
	"time"
)

// Spray leaks wall-clock time into the deterministic core and prints a
// map in iteration order: one finding for each analyzer under test.
func Spray(m map[string]int) {
	start := time.Now()
	for k, v := range m {
		fmt.Println(k, v, start)
	}
}
`

const cleanSource = `package bufsim

import (
	"fmt"
	"sort"
)

// Spray prints a map in sorted key order.
func Spray(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`

// TestStandaloneDirtyModule runs the assembled tool in standalone mode
// over a module with exactly two planted violations and asserts the exit
// status and diagnostic count the CI gate relies on.
func TestStandaloneDirtyModule(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":  "module bufsim\n\ngo 1.22\n",
		"tiny.go": dirtySource,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code = %d, want 2\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "buflint: 2 finding(s)") {
		t.Errorf("want exactly 2 findings, got:\n%s", text)
	}
	if !strings.Contains(text, "wall-clock time.Now") {
		t.Errorf("missing simdeterminism diagnostic:\n%s", text)
	}
	if !strings.Contains(text, "fmt.Println inside range over a map") {
		t.Errorf("missing maporder diagnostic:\n%s", text)
	}
}

// TestStandaloneCleanModule: no findings, exit 0, silence.
func TestStandaloneCleanModule(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":  "module bufsim\n\ngo 1.22\n",
		"tiny.go": cleanSource,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("clean module: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("clean module produced output:\n%s", out)
	}
}

// TestSuppressionSilencesFinding: a //lint:ignore with a reason silences
// exactly the named analyzer at that site.
func TestSuppressionSilencesFinding(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod": "module bufsim\n\ngo 1.22\n",
		"tiny.go": `package bufsim

import "time"

// Stamp is telemetry-only by design.
func Stamp() int64 {
	//lint:ignore simdeterminism test fixture: telemetry only
	return time.Now().UnixNano()
}
`,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("suppressed module: %v\n%s", err, out)
	}
}

// TestVetToolProtocol drives the binary the way CI does — through
// `go vet -vettool` — so the unitchecker handshake (-V=full, -flags,
// per-package .cfg, export-data import) is exercised end to end.
func TestVetToolProtocol(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":  "module bufsim\n\ngo 1.22\n",
		"tiny.go": dirtySource,
	})

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed over a dirty module:\n%s", out)
	}
	text := string(out)
	if !strings.Contains(text, "wall-clock time.Now") ||
		!strings.Contains(text, "fmt.Println inside range over a map") {
		t.Errorf("go vet output missing expected diagnostics:\n%s", text)
	}

	// And the clean module passes under the same driver.
	clean := writeModule(t, map[string]string{
		"go.mod":  "module bufsim\n\ngo 1.22\n",
		"tiny.go": cleanSource,
	})
	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = clean
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
	}
}

// wallViolations plants one flow-aware simdeterminism finding in a
// deterministic package, next to a wall read the dataflow engine must
// exempt because it reaches only stderr.
const wallViolations = `package link

import (
	"fmt"
	"os"
	"time"
)

var lastElapsed time.Duration

// record stores its argument in package state: not a telemetry sink.
func record(d time.Duration) { lastElapsed = d }

// Leak hands wall time to record.
func Leak() {
	t0 := time.Now()
	record(time.Since(t0))
}

// Progress times work for stderr only.
func Progress() {
	t0 := time.Now()
	fmt.Fprintln(os.Stderr, time.Since(t0))
}
`

// slabViolations plants one slabescape finding in internal/tcp.
const slabViolations = `package tcp

type Slab struct {
	cwnd []float64
}

func (sl *Slab) addRow() int32 {
	sl.cwnd = append(sl.cwnd, 0)
	return int32(len(sl.cwnd) - 1)
}

// Stale holds an element pointer across growth.
func Stale(sl *Slab) float64 {
	p := &sl.cwnd[0]
	sl.addRow()
	return *p
}
`

func writeV2Module(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod":                "module bufsim\n\ngo 1.22\n",
		"internal/link/wall.go": wallViolations,
		"internal/tcp/slab.go":  slabViolations,
	})
}

// TestStandaloneDataflowAnalyzers plants exactly one violation for each
// of the dataflow analyzers (simdeterminism, slabescape) in a synthetic
// module and asserts the exit status and the two diagnostics — and that
// the telemetry-only wall read stays exempt.
func TestStandaloneDataflowAnalyzers(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeV2Module(t)

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code = %d, want 2\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "buflint: 2 finding(s)") {
		t.Errorf("want exactly 2 findings, got:\n%s", text)
	}
	for _, want := range []string{
		"wall.go:17:9: wall-clock time.Since in deterministic package bufsim/internal/link",
		"p aliases a tcp.Slab column and is used after a call that can reach addRow",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing diagnostic %q in:\n%s", want, text)
		}
	}
}

// TestStandaloneJSON checks the -json report: every finding carries a
// 16-hex-digit fingerprint and the timing block names all six
// analyzers, so the CI budget is observable.
func TestStandaloneJSON(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeV2Module(t)

	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = mod
	out, err := cmd.Output() // stdout only; exit 2 is expected
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit code 2, got %v", err)
	}
	var report struct {
		Findings []struct {
			Posn        string `json:"posn"`
			Analyzer    string `json:"analyzer"`
			Message     string `json:"message"`
			Fingerprint string `json:"fingerprint"`
		} `json:"findings"`
		Timings []struct {
			Analyzer string  `json:"analyzer"`
			Millis   float64 `json:"ms"`
		} `json:"timings"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}
	if len(report.Findings) != 2 {
		t.Fatalf("findings = %d, want 2\n%s", len(report.Findings), out)
	}
	fp := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for _, f := range report.Findings {
		if !fp.MatchString(f.Fingerprint) {
			t.Errorf("finding %q has malformed fingerprint %q", f.Message, f.Fingerprint)
		}
		if seen[f.Fingerprint] {
			t.Errorf("duplicate fingerprint %s", f.Fingerprint)
		}
		seen[f.Fingerprint] = true
	}
	timed := map[string]bool{}
	for _, tm := range report.Timings {
		if tm.Millis < 0 {
			t.Errorf("analyzer %s has negative timing %v", tm.Analyzer, tm.Millis)
		}
		timed[tm.Analyzer] = true
	}
	for _, name := range []string{
		"simdeterminism", "maporder", "unitsafety", "digestfield", "eventcapture",
		"slabescape",
	} {
		if !timed[name] {
			t.Errorf("timings missing analyzer %s:\n%s", name, out)
		}
	}
}

// TestStaleSuppressionFails: a //lint:ignore whose finding no longer
// fires is itself reported, so dead suppressions cannot accumulate.
func TestStaleSuppressionFails(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod": "module bufsim\n\ngo 1.22\n",
		"tiny.go": `package bufsim

// Stamp no longer reads the clock, but the directive lingers.
func Stamp() int64 {
	//lint:ignore simdeterminism leftover: the wall read below was removed
	return 42
}
`,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit code 2 for stale directive, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "stale //lint:ignore simdeterminism directive") {
		t.Errorf("missing lintstale diagnostic:\n%s", out)
	}
}
