package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// setupSamples is how many set-up-only children measure setup_s. Each
// is a fresh process, so every sample is the cold set-up a user pays.
const setupSamples = 30

// childResult is what one -child run reports on standard output.
type childResult struct {
	SetupS    float64 // sim.NewScheduler to just before the first Run
	WallS     float64 // set-up plus every Run
	CPUS      float64 // user+sys CPU over the same span
	AllocB    uint64  // heap bytes allocated over the same span
	LiveHeapB uint64  // heap in use after a forced GC, simulation reachable
	Digest    string
	Counts    counts
	Err       string // an outside check on the outcome failed
	MaxRSSB   int64  `json:"-"` // filled in by the parent
}

// runChild builds and runs one simulation in this process and prints its
// childResult.
func runChild(workload string, seed int64, m mode, setupOnly bool, profilePath string) error {
	setup := setups[workload]
	if setup == nil {
		return fmt.Errorf("unknown in-process workload %q", workload)
	}
	switch m {
	case modePlain, modeProbe, modeMetrics, modeAudit:
	default:
		return fmt.Errorf("unknown mode %q", m)
	}
	runtime.GOMAXPROCS(1)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}

	t0 := time.Now()
	r := setup(seed, m)
	out := childResult{SetupS: time.Since(t0).Seconds()}
	if !setupOnly {
		r.execute()
	}
	out.WallS = time.Since(t0).Seconds()
	if profilePath != "" {
		pprof.StopCPUProfile()
	}
	out.CPUS = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	out.AllocB = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.LiveHeapB = ms1.HeapAlloc

	if !setupOnly {
		out.Digest = r.digest()
		out.Counts = r.layerCounts()
		if err := r.check(); err != nil {
			out.Err = err.Error()
		}
	}
	runtime.KeepAlive(r)
	return json.NewEncoder(os.Stdout).Encode(out)
}

// processCPU returns this process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// child runs this binary as a -child and parses its result. Every child
// counts as an attempted run; one that fails is recorded and returned
// with ok false.
func (b *bench) child(m mode, setupOnly bool, profile string) (childResult, bool) {
	b.attempted++
	self, err := os.Executable()
	if err != nil {
		b.fail("locate own binary: %v", err)
		return childResult{}, false
	}
	args := []string{"-child", b.workload, "-seed", strconv.FormatInt(b.seed, 10), "-mode", string(m)}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	cmd := exec.CommandContext(b.ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		b.fail("%s %s run: %v: %s", b.workload, m, err, bytes.TrimSpace(stderr.Bytes()))
		return childResult{}, false
	}
	var out childResult
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		b.fail("%s %s run: bad result: %v", b.workload, m, err)
		return childResult{}, false
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.MaxRSSB = ru.Maxrss * 1024
	}
	if out.Err != "" {
		b.fail("%s %s run: %s", b.workload, m, out.Err)
		return out, false
	}
	return out, true
}

// checkSame records a failure if a run's digest differs from the pinned
// digest for the seed or from the first digest of this invocation.
func (b *bench) checkSame(what, digest string, first *string) {
	pinned, err := b.pins.checkDigest(b.workload, b.seed, digest)
	if err != nil {
		b.fail("%s: %v", what, err)
		return
	}
	b.unpinned = b.unpinned || !pinned
	if *first == "" {
		*first = digest
	} else if digest != *first {
		b.fail("%s: digest %.16s… differs from an earlier run's %.16s…", what, digest, *first)
	}
}

// inProcess measures long_lived or short_flows.
func (b *bench) inProcess() (map[string][]float64, error) {
	if b.trace {
		return b.inProcessTraced(), nil
	}
	start := time.Now()
	var setupS []float64
	for i := 0; i < setupSamples; i++ {
		if out, ok := b.child(modePlain, true, ""); ok {
			setupS = append(setupS, out.SetupS)
		}
	}
	var wall, cpu, runSetup []float64
	var digest string
	for len(wall) == 0 || b.timeLeft(start, time.Duration(median(wall)*float64(time.Second))) {
		out, ok := b.child(modePlain, false, "")
		if !ok {
			break
		}
		b.checkSame("plain run", out.Digest, &digest)
		wall = append(wall, out.WallS)
		cpu = append(cpu, out.CPUS)
		runSetup = append(runSetup, out.SetupS)
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("%s: no run completed: %v", b.workload, b.problems)
	}
	events := b.pins.ReferenceEvents[b.workload]
	rate := make([]float64, len(wall))
	for i, w := range wall {
		rate[i] = events / w
	}
	return map[string][]float64{
		"wall_s":       wall,
		"events_per_s": rate,
		"setup_s":      append(setupS, runSetup...),
		"cpu_s":        cpu,
	}, nil
}

// inProcessTraced runs rounds of profiled, plain, probe, metrics, audit
// and again plain children. Counts come from the first round (they are
// exact and repeat); overheads are taken in every round against the mean
// of the two plain runs that bracket the instrumented ones, so a drift
// in host speed during the round cancels to first order. The traced run
// is the profiled child and the timed-queue (probe) child together, so
// trace.overhead_frac is the mean of their two overheads.
func (b *bench) inProcessTraced() map[string][]float64 {
	start := time.Now()
	v := map[string][]float64{}
	one := func(name string, x float64) { v[name] = []float64{x} }
	var digest string
	var round time.Duration
	for rounds := 0; rounds == 0 || b.timeLeft(start, round); rounds++ {
		t0 := time.Now()
		prof := filepath.Join(b.work, fmt.Sprintf("cpu-%d.pprof", rounds))
		runs := map[string]childResult{}
		for _, c := range []struct {
			what    string
			m       mode
			profile string
		}{
			{"profiled", modePlain, prof},
			{"plain", modePlain, ""},
			{"probe", modeProbe, ""},
			{"metrics", modeMetrics, ""},
			{"audit", modeAudit, ""},
			{"plain again", modePlain, ""},
		} {
			if out, ok := b.child(c.m, false, c.profile); ok {
				b.checkSame(c.what+" run", out.Digest, &digest)
				runs[c.what] = out
			}
		}
		plain, ok := runs["plain"]
		again, okAgain := runs["plain again"]
		if !ok || !okAgain {
			break
		}
		base := (plain.WallS + again.WallS) / 2
		for name, whats := range map[string][]string{
			"trace.overhead_frac":   {"profiled", "probe"},
			"metrics.overhead_frac": {"metrics"},
			"audit.overhead_frac":   {"audit"},
		} {
			if x, ok := overhead(runs, base, whats); ok {
				v[name] = append(v[name], x)
			}
		}
		round = time.Since(t0)
		if rounds > 0 {
			continue
		}

		pc := plain.Counts
		one("sim.events", float64(pc.Events))
		one("sim.heap_peak", float64(pc.HeapPeak))
		one("link.bottleneck_util", pc.Util)
		one("link.delivered_pkts", float64(pc.Delivered))
		one("queue.enqueued", float64(pc.Enqueued))
		one("queue.dropped", float64(pc.Dropped))
		if offered := pc.Enqueued + pc.Dropped; offered > 0 {
			one("queue.drop_frac", float64(pc.Dropped)/float64(offered))
		}
		one("queue.op_ns", runs["probe"].Counts.QueueOpNs)
		one("tcp.segments_sent", float64(pc.Sent))
		one("tcp.retransmits", float64(pc.Retransmits))
		one("tcp.timeouts", float64(pc.Timeouts))
		if pc.Sent > 0 {
			one("tcp.useful_frac", 1-float64(pc.Retransmits)/float64(pc.Sent))
		}
		one("topology.flows_wired", float64(pc.Wired))
		one("workload.flows_started", float64(pc.Started))
		one("workload.flows_completed", float64(pc.Completed))
		if pc.Events > 0 {
			one("runtime.alloc_b_per_event", float64(plain.AllocB)/float64(pc.Events))
		}
		one("runtime.alloc_mb", float64(plain.AllocB)/1e6)
		one("runtime.live_heap_mb", float64(plain.LiveHeapB)/1e6)
		one("runtime.max_rss_mb", float64(plain.MaxRSSB)/1e6)
		if _, ok := runs["profiled"]; ok {
			p, err := readCPUProfile(prof)
			if err != nil {
				b.fail("%v", err)
				continue
			}
			shares := p.layerShares()
			for _, l := range cpuLayers {
				one(l+".cpu_frac", shares[l])
			}
			one("runtime.gc_cpu_frac", p.gcShare())
		}
	}
	return v
}

// overhead returns how much longer the runs named whats took, on
// average, than base seconds, as a fraction of base. It reports false
// if any of them did not complete.
func overhead(runs map[string]childResult, base float64, whats []string) (float64, bool) {
	var sum float64
	for _, what := range whats {
		r, ok := runs[what]
		if !ok {
			return 0, false
		}
		sum += r.WallS
	}
	return sum/(base*float64(len(whats))) - 1, true
}
