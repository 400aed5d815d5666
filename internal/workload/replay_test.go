package workload

import (
	"strings"
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func TestReplayRunsTrace(t *testing.T) {
	s, d, _ := testDumbbell(5, 200, 10*units.Mbps)
	specs := []FlowSpec{
		{Start: 0, Size: 10},
		{Start: 500 * units.Millisecond, Size: 20},
		{Start: units.Second, Size: 5},
	}
	records := Replay(d, specs, tcp.Config{SegmentSize: 1000, MaxWindow: 43})
	s.Run(units.Time(20 * units.Second))
	if len(records) != 3 {
		t.Fatalf("records = %d", len(records))
	}
	for i, r := range records {
		if r.Completed == units.Never {
			t.Errorf("flow %d never completed", i)
			continue
		}
		if r.Start < units.Epoch.Add(specs[i].Start) {
			t.Errorf("flow %d started at %v before its trace time %v", i, r.Start, specs[i].Start)
		}
		if r.Completed <= r.Start {
			t.Errorf("flow %d completed before starting", i)
		}
	}
	// Start times respect the trace (within scheduling exactness).
	if records[1].Start != units.Epoch.Add(specs[1].Start) {
		t.Errorf("flow 1 start = %v, want %v", records[1].Start, specs[1].Start)
	}
}

func TestReplayEndToEndFromCSV(t *testing.T) {
	s, d, _ := testDumbbell(10, 100, 10*units.Mbps)
	csv := "0.0,14\n0.2,14\n0.4,30\n0.6,8\n0.8,14\n"
	specs, err := ReadFlows(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	records := Replay(d, specs, tcp.Config{SegmentSize: 1000, MaxWindow: 43})
	s.Run(units.Time(30 * units.Second))
	var done int
	for _, r := range records {
		if r.Completed != units.Never {
			done++
		}
	}
	if done != len(records) {
		t.Errorf("%d/%d trace flows completed", done, len(records))
	}
}
