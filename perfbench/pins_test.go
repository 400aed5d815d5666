package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestCheckDigest(t *testing.T) {
	p := pinFile{Digests: map[string]map[string]string{"long_lived": {"7": "abc"}}}
	if pinned, err := p.checkDigest("long_lived", 7, "abc"); err != nil || !pinned {
		t.Errorf("matching digest: pinned %v, err %v", pinned, err)
	}
	if _, err := p.checkDigest("long_lived", 7, "abd"); err == nil {
		t.Error("mismatching digest accepted")
	}
	if pinned, err := p.checkDigest("long_lived", 8, "anything"); err != nil || pinned {
		t.Errorf("unpinned seed: pinned %v, err %v; want false, nil", pinned, err)
	}
	if pinned, err := p.checkDigest("short_flows", 7, "abc"); err != nil || pinned {
		t.Errorf("workload without pins: pinned %v, err %v; want false, nil", pinned, err)
	}
}

func TestPinnedSeeds(t *testing.T) {
	p := pinFile{Digests: map[string]map[string]string{
		"a": {"1": "x", "2": "x", "3": "x"},
		"b": {"1": "x", "5": "x"},
	}}
	for w, want := range map[string]string{"a": "3 seeds, 1–3", "b": "2 seeds, 1–5", "c": "none"} {
		if got := p.pinnedSeeds(w); got != want {
			t.Errorf("pinnedSeeds(%s) = %q, want %q", w, got, want)
		}
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"long_lived", "short_flows", "cc_sweep"} {
		if got := pins.pinnedSeeds(w); got != "50 seeds, 1–50" {
			t.Errorf("pins.json pins %s for %s, want every seed 1–50", got, w)
		}
	}
}

func TestCheckSameCountsEveryMismatch(t *testing.T) {
	b := &bench{workload: "long_lived", seed: 7,
		pins: pinFile{Digests: map[string]map[string]string{"long_lived": {"7": "abc"}}}}
	var first string
	b.checkSame("run 1", "abc", &first)
	b.checkSame("run 2", "abc", &first)
	b.checkSame("run 3", "xyz", &first) // differs from the pin
	if b.failed != 1 {
		t.Fatalf("failed = %d after one mismatch, want 1 (%v)", b.failed, b.problems)
	}
	if b.unpinned {
		t.Error("a pinned seed was reported as unpinned")
	}
	b.seed = 8 // unpinned: runs must still agree with each other
	first = ""
	b.checkSame("run 4", "abc", &first)
	b.checkSame("run 5", "abd", &first)
	if b.failed != 2 {
		t.Fatalf("failed = %d after a run disagreed with its sibling, want 2 (%v)", b.failed, b.problems)
	}
	if !b.unpinned {
		t.Error("an unpinned seed was not reported")
	}
}

func TestTableDigestStripsTimingLines(t *testing.T) {
	table := "=== ccfamilies ===\nVariant  Flows\nreno     25\n"
	a := tableDigest([]byte(table + "(ccfamilies in 20.0s)\n\n"))
	b := tableDigest([]byte(table + "(ccfamilies in 0.0s)\n\nwrote /tmp/m.json\n"))
	if a != b {
		t.Error("timing or -metrics notice lines changed the table digest")
	}
	if c := tableDigest([]byte(strings.Replace(table, "25", "26", 1) + "(ccfamilies in 20.0s)\n\n")); c == a {
		t.Error("a changed table row left the digest unchanged")
	}
}

func TestParseCacheLine(t *testing.T) {
	c, err := parseCacheLine([]byte("paperexp: note\ncache: 22 hits, 222 misses (9% hit rate), 222 stored, 0 verified\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c != (cacheLine{hits: 22, misses: 222, stored: 222}) {
		t.Errorf("parsed %+v", c)
	}
	if _, err := parseCacheLine([]byte("no summary\n")); err == nil {
		t.Error("missing summary accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalog must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)

	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if w.Name != "cc_sweep" && setups[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		if pins.ReferenceEvents[w.Name] < 1e6 {
			t.Errorf("workload %s has no reference event count in pins.json", w.Name)
		}
		if pins.Workloads[w.Name] == "" {
			t.Errorf("workload %s has no reason in pins.json", w.Name)
		}
		if _, ok := pins.Digests[w.Name][fmt.Sprint(pins.ReferenceSeed)]; !ok {
			t.Errorf("workload %s has no digest pinned for the reference seed", w.Name)
		}
	}
	for _, m := range perLayer {
		if pins.Moves[m.name] == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.name)
		}
	}
}
