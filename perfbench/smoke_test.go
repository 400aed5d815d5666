package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs each workload once through run.sh, as the benchmark is
// run for real, and checks that it reports every end-to-end metric and a
// correct result. It builds into ../.bench_build and takes about a
// minute.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range []string{"long_lived", "short_flows", "cc_sweep"} {
		t.Run(w, func(t *testing.T) {
			cmd := exec.Command("bash", "perfbench/run.sh", "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0")
			cmd.Dir = ".."
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("run.sh: %v\n%s%s", err, out, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result not correct: %+v\n%s", res, out)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// TestRefusesIncompleteCheckout checks that run.sh fails, without a
// result, when the simulator sources are missing.
func TestRefusesIncompleteCheckout(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command("bash", "-c", `mkdir -p perfbench && cp "$0" perfbench/run.sh && bash perfbench/run.sh --workload long_lived --seed 1 --seconds 1 --trace 0`, mustAbs(t, "run.sh"))
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without sources:\n%s", out)
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Errorf("run.sh printed a result without sources:\n%s", out)
	}
}

func mustAbs(t *testing.T, path string) string {
	t.Helper()
	abs, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}
