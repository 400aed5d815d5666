package experiment

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4, 100} {
		var hits [57]int32
		parallelFor(workers, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	// n = 0 must be a no-op.
	parallelFor(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paired sweeps")
	}
	cfg := UtilizationTableConfig{
		Seed:           5,
		BottleneckRate: 10 * units.Mbps,
		Ns:             []int{20, 40},
		Factors:        []float64{1, 2},
		Warmup:         5 * units.Second,
		Measure:        8 * units.Second,
	}
	cfg.Parallelism = 1
	seq := RunUtilizationTable(cfg)
	cfg.Parallelism = 8
	par := RunUtilizationTable(cfg)
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
}

// stableMetricsJSON renders a registry snapshot with the wall-clock gauges
// removed — those measure host time, everything else must be
// deterministic.
func stableMetricsJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	snap := reg.Snapshot()
	for name := range snap.Gauges {
		if strings.Contains(name, "wall_seconds") {
			delete(snap.Gauges, name)
		}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepDeterministicWithMetrics is the telemetry contract: attaching a
// registry must not change a single result bit, and the merged registry
// itself must be identical at any worker count.
func TestSweepDeterministicWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("paired sweeps")
	}
	cfg := UtilizationTableConfig{
		Seed:           5,
		BottleneckRate: 10 * units.Mbps,
		Ns:             []int{20, 40},
		Factors:        []float64{1, 2},
		Warmup:         5 * units.Second,
		Measure:        8 * units.Second,
	}
	cfg.Parallelism = 4
	plain := RunUtilizationTable(cfg)

	withMetrics := cfg
	withMetrics.Metrics = metrics.New()
	withMetrics.Parallelism = 1
	seq := RunUtilizationTable(withMetrics)
	seqJSON := stableMetricsJSON(t, withMetrics.Metrics)

	withMetrics.Metrics = metrics.New()
	withMetrics.Parallelism = 8
	par := RunUtilizationTable(withMetrics)
	parJSON := stableMetricsJSON(t, withMetrics.Metrics)

	if len(plain) != len(seq) || len(plain) != len(par) {
		t.Fatalf("row counts differ: plain=%d seq=%d par=%d", len(plain), len(seq), len(par))
	}
	for i := range plain {
		if plain[i] != seq[i] {
			t.Errorf("row %d: metrics changed the result:\noff %+v\non  %+v", i, plain[i], seq[i])
		}
		if seq[i] != par[i] {
			t.Errorf("row %d differs across worker counts:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
	if seqJSON != parJSON {
		t.Errorf("merged registry differs across worker counts:\nseq %s\npar %s", seqJSON, parJSON)
	}
	if !strings.Contains(seqJSON, "sim.events_processed") {
		t.Errorf("registry missing scheduler counters: %s", seqJSON)
	}
}

// TestLongLivedMetricsPopulated checks that one instrumented run publishes
// the scheduler, queue and TCP instruments it promises.
func TestLongLivedMetricsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	reg := metrics.New()
	RunLongLived(LongLivedConfig{
		Seed:           7,
		N:              10,
		BottleneckRate: 10 * units.Mbps,
		Warmup:         3 * units.Second,
		Measure:        5 * units.Second,
		Env:            Env{Metrics: reg},
	})
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim.events_processed",
		"bottleneck.enqueued_packets",
		"bottleneck.dequeued_packets",
		"tcp.segments_sent",
		"tcp.acks_received",
		"tcp.flows_tracked",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Gauges["sim.wall_seconds"] <= 0 {
		t.Errorf("sim.wall_seconds = %v, want > 0", snap.Gauges["sim.wall_seconds"])
	}
	if snap.Gauges["sim.time_seconds"] != 8 {
		t.Errorf("sim.time_seconds = %v, want 8", snap.Gauges["sim.time_seconds"])
	}
	if h := snap.Histograms["bottleneck.sojourn_ms"]; h.Count <= 0 {
		t.Errorf("sojourn histogram empty: %+v", h)
	}
	if h := snap.Histograms["tcp.cwnd_segments"]; h.Count <= 0 {
		t.Errorf("cwnd histogram empty: %+v", h)
	}
}
