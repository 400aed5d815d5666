package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// warmRuns is how many warm paperexp invocations follow each cold one.
// A warm invocation does everything a sweep does except simulate: start,
// parse flags, replay every point from the run cache and print the
// table. The median of their CPU times (user+sys) is cc_sweep's setup_s
// and the median of their wall times is runcache.replay_s. Each takes
// about 10 ms, so many are cheap. Wall time is not used for setup_s: on
// a busy host a 10 ms process's wall time is mostly how long it waited
// to be scheduled, and its median swung threefold from run to run.
const warmRuns = 40

// ccWorkers is the sweep's -parallel setting. One worker keeps the
// sweep's wall time a property of the code: with a worker per CPU on a
// small shared host it swung by a third from run to run with how the
// host scheduled two busy threads, while one worker ran as steadily as
// the in-process workloads. The worker pool, per-simulation set-up and
// the run cache are exercised the same way.
const ccWorkers = 1

// cliRun is one finished paperexp invocation.
type cliRun struct {
	wall, cpu float64 // seconds
	maxRSS    int64   // bytes
	table     string  // digest of stdout with timing lines stripped
	cache     cacheLine
}

// cacheLine is paperexp's "cache: H hits, M misses (…), S stored" summary.
type cacheLine struct{ hits, misses, stored int64 }

var (
	cacheRe  = regexp.MustCompile(`(?m)^cache: (\d+) hits, (\d+) misses \([^)]*\), (\d+) stored`)
	timingRe = regexp.MustCompile(`^\(.* in [0-9.]+s\)$`)
)

// tableDigest is the SHA-256 of paperexp's standard output without the
// lines that vary from run to run: "(… in Ns)" timings and the "wrote
// <file>" notice of -metrics.
func tableDigest(stdout []byte) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(string(stdout), "\n") {
		trimmed := strings.TrimRight(line, "\n")
		if timingRe.MatchString(trimmed) || strings.HasPrefix(trimmed, "wrote ") {
			continue
		}
		h.Write([]byte(line))
	}
	return hexSum(h)
}

func parseCacheLine(stderr []byte) (cacheLine, error) {
	m := cacheRe.FindSubmatch(stderr)
	if m == nil {
		return cacheLine{}, fmt.Errorf("no cache summary in paperexp output: %q", stderr)
	}
	var c cacheLine
	for i, dst := range []*int64{&c.hits, &c.misses, &c.stored} {
		v, err := strconv.ParseInt(string(m[i+1]), 10, 64)
		if err != nil {
			return cacheLine{}, err
		}
		*dst = v
	}
	return c, nil
}

// paperexp runs the ccfamilies sweep against cacheDir. Every invocation
// counts as an attempted run; one that fails is recorded and returned
// with ok false.
func (b *bench) paperexp(cacheDir string, extra ...string) (cliRun, bool) {
	b.attempted++
	args := append([]string{
		"-quick", "-exp", "ccfamilies",
		"-parallel", strconv.Itoa(ccWorkers),
		"-cache", "-cachedir", cacheDir,
		"-seed", strconv.FormatInt(b.seed, 10),
	}, extra...)
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.root, ".bench_build", "paperexp"), args...)
	cmd.Dir = b.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0).Seconds()}
	if err != nil {
		b.fail("paperexp %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
		return r, false
	}
	r.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = ru.Maxrss * 1024
	}
	r.table = tableDigest(stdout.Bytes())
	if r.cache, err = parseCacheLine(stderr.Bytes()); err != nil {
		b.fail("%v", err)
		return r, false
	}
	return r, true
}

// coldWarm runs the sweep cold into a fresh cache directory, then warm
// runs times against it, checking that every table matches the pinned
// one for the seed (if any) and *first, the first table of this
// invocation, and that warm runs replay every point.
func (b *bench) coldWarm(name string, runs int, first *string, coldExtra ...string) (cold cliRun, warm []cliRun, ok bool) {
	dir := filepath.Join(b.work, name)
	defer os.RemoveAll(dir)
	cold, ok = b.paperexp(dir, coldExtra...)
	if !ok {
		return cold, nil, false
	}
	b.checkSame(name+" cold run", cold.table, first)
	for i := 0; i < runs; i++ {
		w, ok := b.paperexp(dir)
		if !ok {
			return cold, warm, false
		}
		b.checkSame(name+" warm run", w.table, first)
		if w.cache.misses != 0 {
			b.fail("%s warm run: %d cache misses, want every point replayed", name, w.cache.misses)
		}
		warm = append(warm, w)
	}
	return cold, warm, true
}

// ccSweep measures cc_sweep.
func (b *bench) ccSweep() (map[string][]float64, error) {
	if _, err := os.Stat(filepath.Join(b.root, ".bench_build", "paperexp")); err != nil {
		return nil, fmt.Errorf("paperexp is not built (run through run.sh): %w", err)
	}
	if b.trace {
		return b.ccSweepTraced(), nil
	}
	start := time.Now()
	var wall, cpu, warmCPU []float64
	var digest string
	for i := 0; len(wall) == 0 || b.timeLeft(start, time.Duration(median(wall)*float64(time.Second))); i++ {
		cold, warm, ok := b.coldWarm(fmt.Sprintf("sweep-%d", i), warmRuns, &digest)
		if !ok {
			break
		}
		wall = append(wall, cold.wall)
		cpu = append(cpu, cold.cpu)
		for _, w := range warm {
			warmCPU = append(warmCPU, w.cpu)
		}
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("cc_sweep: no run completed: %v", b.problems)
	}
	events := b.pins.ReferenceEvents[b.workload]
	rate := make([]float64, len(wall))
	for i, w := range wall {
		rate[i] = events / w
	}
	return map[string][]float64{
		"wall_s":       wall,
		"events_per_s": rate,
		"setup_s":      warmCPU,
		"cpu_s":        cpu,
	}, nil
}

// sweepMetrics is the part of paperexp's -metrics JSON the benchmark reads.
type sweepMetrics struct {
	Gauges map[string]float64 `json:"gauges"`
}

// ccSweepTraced runs the sweep cold and warm untraced, then cold again
// with the CLI's own -pprof and -metrics.
func (b *bench) ccSweepTraced() map[string][]float64 {
	v := map[string][]float64{}
	one := func(name string, x float64) { v[name] = []float64{x} }
	var digest string
	cold, warm, ok := b.coldWarm("plain", warmRuns, &digest)
	if !ok {
		return v
	}
	prof := filepath.Join(b.work, "cpu.pprof")
	metricsPath := filepath.Join(b.work, "metrics.json")
	traced, _, ok := b.coldWarm("traced", 0, &digest, "-pprof", prof, "-metrics", metricsPath)
	if !ok {
		return v
	}

	one("experiment.sims", float64(cold.cache.misses))
	one("experiment.parallel_eff", cold.cpu/(cold.wall*ccWorkers))
	one("runtime.max_rss_mb", float64(cold.maxRSS)/1e6)
	one("runcache.puts", float64(cold.cache.stored))
	one("runcache.hits", float64(cold.cache.hits))
	one("runcache.misses", float64(cold.cache.misses))
	var hits, lookups int64
	var replay []float64
	for _, w := range warm {
		hits += w.cache.hits
		lookups += w.cache.hits + w.cache.misses
		replay = append(replay, w.wall)
	}
	if lookups > 0 {
		one("runcache.warm_hit_frac", float64(hits)/float64(lookups))
	}
	v["runcache.replay_s"] = replay
	one("trace.overhead_frac", traced.wall/cold.wall-1)

	raw, err := os.ReadFile(metricsPath)
	var sm sweepMetrics
	if err == nil {
		err = json.Unmarshal(raw, &sm)
	}
	if err != nil {
		b.fail("paperexp -metrics output: %v", err)
	}
	one("experiment.point_s_mean", sm.Gauges["ccfamilies/sweep.point_wall_seconds_mean"])
	one("experiment.point_s_max", sm.Gauges["ccfamilies/sweep.point_wall_seconds_max"])

	p, err := readCPUProfile(prof)
	if err != nil {
		b.fail("%v", err)
		return v
	}
	shares := p.layerShares()
	for _, l := range cpuLayers {
		one(l+".cpu_frac", shares[l])
	}
	one("runtime.gc_cpu_frac", p.gcShare())
	return v
}
