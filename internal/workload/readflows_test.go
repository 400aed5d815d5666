package workload

import (
	"strings"
	"testing"

	"bufsim/internal/units"
)

func TestReadFlowsSniffsCSV(t *testing.T) {
	in := "# legacy export\n0.1,4\n0.5,10\n2.25,100\n"
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Size != 4 || specs[2].Start != 2250*units.Millisecond {
		t.Errorf("specs = %+v", specs)
	}
}

// TestParseTrace reads a CSV trace with a comment, a header row and a
// blank line, and checks every row comes back in file order.
func TestParseTrace(t *testing.T) {
	in := `# flows exported from somewhere
start_seconds,size_segments
0.1,4
0.5,10

2.25,100
`
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Size != 4 || specs[1].Size != 10 || specs[2].Size != 100 {
		t.Errorf("order wrong: %+v", specs)
	}
	if specs[0].Start != 100*units.Millisecond {
		t.Errorf("start = %v", specs[0].Start)
	}
	if specs[2].Start != 2250*units.Millisecond {
		t.Errorf("start = %v", specs[2].Start)
	}
}

func TestReadFlowsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"wrong fields":  "1,2,3\n",
		"bad size":      "1.0,ten\n",
		"negative":      "-1,5\n",
		"zero size":     "1,0\n",
		"bad start row": "0.1,5\n(oops),5\n",
	}
	for name, in := range cases {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A trace with no rows is fine: comments only, or a header only.
	for _, in := range []string{"# nothing\n", "start_seconds,size_segments\n"} {
		specs, err := ReadFlows(strings.NewReader(in))
		if err != nil || len(specs) != 0 {
			t.Errorf("empty trace %q: %v %v", in, specs, err)
		}
	}
}

func TestReadFlowsSniffsJSON(t *testing.T) {
	in := ` [
		{"start": "100ms", "size": 4},
		{"start": 0.5, "size": 10},
		{"start": "2.25s", "size": 100}
	]`
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
	// Duration strings and bare seconds land on the same axis.
	if specs[0].Start != 100*units.Millisecond || specs[1].Start != 500*units.Millisecond {
		t.Errorf("starts = %v, %v", specs[0].Start, specs[1].Start)
	}
	if specs[2].Size != 100 {
		t.Errorf("size = %d", specs[2].Size)
	}
}

// TestReadFlowsRejectsOutOfOrder pins order as part of the format in
// both encodings: silently resorting shuffled rows would hide corrupted
// or mis-merged traces.
func TestReadFlowsRejectsOutOfOrder(t *testing.T) {
	cases := map[string]string{
		"csv":  "0.5,10\n0.1,4\n",
		"json": `[{"start": 0.5, "size": 10}, {"start": 0.1, "size": 4}]`,
	}
	for name, in := range cases {
		_, err := ReadFlows(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: out-of-order trace accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "ordered by start time") {
			t.Errorf("%s: error %q does not explain the ordering contract", name, err)
		}
	}
}

func TestReadFlowsJSONErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `[{"start": 0, "size": 4, "bytes": 100}]`,
		"missing start":  `[{"size": 4}]`,
		"bad start":      `[{"start": true, "size": 4}]`,
		"negative start": `[{"start": -1, "size": 4}]`,
		"zero size":      `[{"start": 0, "size": 0}]`,
		"negative size":  `[{"start": 0, "size": -4}]`,
		"not an array":   `{"start": 0, "size": 4}`,
	}
	for name, in := range cases {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// An empty JSON trace is fine, like an empty CSV one.
	specs, err := ReadFlows(strings.NewReader("[]"))
	if err != nil || len(specs) != 0 {
		t.Errorf("empty JSON trace: %v %v", specs, err)
	}
}

func TestReadFlowsCSVRejectsNonFinite(t *testing.T) {
	for _, in := range []string{"NaN,4\n", "+Inf,4\n"} {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%q: non-finite start accepted", strings.TrimSpace(in))
		}
	}
}
