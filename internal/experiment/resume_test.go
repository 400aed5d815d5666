package experiment

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bufsim/internal/runcache"
	"bufsim/internal/units"
)

// TestSweepCrashResume interrupts a cached sweep partway through, then
// reruns it with Resume and checks the merged table is bit-identical to
// an uninterrupted run — with the pre-crash points replayed from the
// cache (hits) and only the remainder simulated (misses).
func TestSweepCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	base := UtilizationTableConfig{
		Seed: 3,
		Ns:   []int{3, 4}, Factors: []float64{0.5, 1}, // 4 cells
		BottleneckRate: 10 * units.Mbps,
		Warmup:         1 * units.Second, Measure: 2 * units.Second,
		Env: Env{Parallelism: 1}, // deterministic interruption point
	}
	total := len(base.Ns) * len(base.Factors)
	want := RunUtilizationTable(base) // uninterrupted, uncached baseline

	dir := t.TempDir()
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var puts atomic.Int64
	store.OnPut = func(string) {
		if puts.Add(1) == 2 {
			cancel()
			// Keep this worker parked so the dispatcher sees the
			// cancellation before the worker asks for another job;
			// otherwise the send and the Done case race in its select.
			time.Sleep(50 * time.Millisecond)
		}
	}
	crashed := base
	crashed.Cache, crashed.Ctx = store, ctx
	RunUtilizationTable(crashed) // partial table discarded, as a crash would
	done := int(store.Stats().Puts)
	if done < 2 || done >= total {
		t.Fatalf("interrupted run completed %d of %d points, want a strict partial >= 2", done, total)
	}

	// "Process restart": a fresh store over the same directory, counters
	// zeroed, resuming the checkpoint.
	store2, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Cache, resumed.Resume = store2, true
	got := RunUtilizationTable(resumed)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed table differs from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
	st := store2.Stats()
	if st.Hits != int64(done) {
		t.Errorf("resumed run replayed %d points from cache, want %d (each pre-crash point exactly once)", st.Hits, done)
	}
	if st.Misses != int64(total-done) {
		t.Errorf("resumed run simulated %d points, want %d (only the remainder)", st.Misses, total-done)
	}
}
