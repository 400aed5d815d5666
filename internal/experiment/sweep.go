package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// cacheSalt versions every cache key. Runs are deterministic functions
// of (config, seed), so cached results stay valid until the simulation
// semantics change — and any change that can alter a result (kernel,
// queue, TCP, workload, experiment lowering) MUST bump this salt, which
// invalidates the whole cache at once. See DESIGN.md, "Run cache".
const cacheSalt = "bufsim-results-v1"

// digestIgnore lists the config fields that never change what a run
// computes: observers (Metrics, Audit), the cache plumbing itself
// (Cache, Resume), and execution policy (Parallelism, Ctx). Everything
// else in a config is semantic and part of the cache key — the
// reflection completeness test in digest_coverage_test.go enforces that
// split.
var digestIgnore = runcache.IgnoreFields("Metrics", "Audit", "Cache", "Resume", "Parallelism", "Ctx")

// pointKey is the cache key for one computation of the given kind.
func pointKey(kind string, cfg any) string {
	return runcache.Key(cacheSalt, kind, cfg, digestIgnore)
}

// memoRun memoizes one deterministic computation in the cache. With a
// nil cache it just computes. force bypasses the lookup (used when
// telemetry or audit hooks are attached, which require actually running
// the simulation); the result is still stored, warming the cache.
//
// When verification sampling is on, a sampled hit is recomputed and
// compared byte-for-byte with the stored blob; a mismatch is recorded
// on the store and the freshly computed value wins.
func memoRun[T any](cache *runcache.Store, kind string, cfg any, force bool, compute func() T) T {
	if cache == nil {
		return compute()
	}
	key := pointKey(kind, cfg)
	if !force {
		if blob, ok := cache.Get(key); ok {
			var v T
			if err := json.Unmarshal(blob, &v); err == nil {
				if cache.ShouldVerify(key) {
					re := compute()
					reb, merr := json.Marshal(re)
					same := merr == nil && bytes.Equal(reb, blob)
					cache.RecordVerify(key, kind, same)
					if !same {
						return re
					}
				}
				return v
			}
		}
	}
	v := compute()
	// Best-effort: a marshal failure (NaN etc.) just leaves this entry
	// cold and the computed value is returned as usual.
	cache.Put(key, v)
	return v
}

// sweepSpec describes one fan-out to the orchestrator.
type sweepSpec struct {
	// name labels the sweep in checkpoints and stats.
	name string
	// cfg is the sweep-level config; its digest identifies the
	// checkpoint, so a resumed run with different parameters starts a
	// fresh record instead of trusting stale progress.
	cfg         any
	cache       *runcache.Store
	resume      bool
	ctx         context.Context
	parallelism int
	metrics     *metrics.Registry
}

// runSweep replaces bare parallelFor fan-out for the sweep drivers: it
// dispatches point(0..n-1) across a worker pool, checkpoints progress to
// the cache's sweep manifest after every completed point, honours
// context cancellation between points (in-flight points finish), and
// publishes per-point timing and cache hit-rate stats to the spec's
// metrics registry once the queue drains.
//
// Cancellation returns ctx.Err(); the points completed so far have
// written their slots (and their cache entries), so a rerun with resume
// replays them as hits and only computes the remainder. Like
// parallelFor, results are bit-identical regardless of worker count —
// the orchestrator only observes.
func runSweep(spec sweepSpec, n int, point func(i int)) error {
	ctx := spec.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var man *runcache.SweepManifest
	if spec.cache != nil {
		man = spec.cache.Sweep(spec.name, pointKey("sweep:"+spec.name, spec.cfg), n, spec.resume)
	}
	resumedPoints := man.DoneCount()
	var before runcache.Stats
	if spec.cache != nil {
		before = spec.cache.Stats()
	}
	start := time.Now()
	durations := make([]time.Duration, n)

	workers := spec.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				point(i)
				durations[i] = time.Since(t0)
				man.MarkDone(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	publishSweepStats(spec, n, resumedPoints, durations, start, before)
	if err := ctx.Err(); err != nil {
		return err
	}
	man.Finish()
	return nil
}

// publishSweepStats surfaces orchestrator observations through the
// existing metrics registry. It runs on one goroutine after the worker
// pool has drained (the Registry is not goroutine-safe).
func publishSweepStats(spec sweepSpec, n, resumed int, durations []time.Duration, start time.Time, before runcache.Stats) {
	reg := spec.metrics
	if reg == nil {
		return
	}
	var sum, max time.Duration
	completed := 0
	for _, d := range durations {
		if d > 0 {
			completed++
			sum += d
			if d > max {
				max = d
			}
		}
	}
	reg.Counter("sweep.points_total").Add(int64(n))
	reg.Counter("sweep.points_run").Add(int64(completed))
	reg.Counter("sweep.points_resumed").Add(int64(resumed))
	reg.Gauge("sweep.wall_seconds").Set(time.Since(start).Seconds())
	if completed > 0 {
		reg.Gauge("sweep.point_wall_seconds_mean").Set(sum.Seconds() / float64(completed))
		reg.Gauge("sweep.point_wall_seconds_max").SetMax(max.Seconds())
	}
	if spec.cache != nil {
		after := spec.cache.Stats()
		delta := runcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
		reg.Counter("sweep.cache_hits").Add(delta.Hits)
		reg.Counter("sweep.cache_misses").Add(delta.Misses)
		reg.Gauge("sweep.cache_hit_rate").Set(delta.HitRate())
	}
}
