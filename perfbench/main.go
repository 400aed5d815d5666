// Command perfbench is bufsim's benchmark: three workloads, measured end
// to end with tracing off, and per layer in a separate traced run.
//
//	bash perfbench/run.sh --workload long_lived --seed 1 --seconds 30 --trace 0
//
// run.sh builds this command and cmd/paperexp into .bench_build (with
// the Go build cache there too) and runs it from the repository root.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; BENCHMARK.json lists both, and pins.json holds the
// pinned result digests, reference event counts and provenance.
//
// Workloads:
//
//   - long_lived: 1000 Reno flows on a 2 Gb/s bottleneck with the
//     paper's RTT·C/√n buffer, run in a child process at GOMAXPROCS=1.
//   - short_flows: Poisson arrivals of geometric-length flows at load
//     0.8 on 100 Mb/s (Figs. 8/9), same harness.
//   - cc_sweep: `paperexp -quick -exp ccfamilies -parallel 1 -cache`
//     run cold into a fresh cache directory, then warm.
//
// Every simulation runs in a child process (this binary with -child), so
// peak RSS, CPU time and heap figures belong to one run and nothing
// carries over between runs. A run fails if its process exits non-zero,
// its result digest differs from the pinned digest for its seed or from
// the other runs of the same seed, or an outside check on its outcome
// fails; failures are counted in "failed" and make "correct" false.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer that a
// workload does not exercise, or that cannot be observed from outside
// the paperexp process, reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.heap_peak", "count"},
	{"sim.cpu_frac", "fraction"},
	{"link.cpu_frac", "fraction"},
	{"link.bottleneck_util", "fraction"},
	{"link.delivered_pkts", "count"},
	{"node.cpu_frac", "fraction"},
	{"queue.enqueued", "count"},
	{"queue.dropped", "count"},
	{"queue.drop_frac", "fraction"},
	{"queue.op_ns", "ns"},
	{"queue.cpu_frac", "fraction"},
	{"tcp.segments_sent", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.timeouts", "count"},
	{"tcp.useful_frac", "fraction"},
	{"tcp.cpu_frac", "fraction"},
	{"topology.flows_wired", "count"},
	{"topology.cpu_frac", "fraction"},
	{"workload.flows_started", "count"},
	{"workload.flows_completed", "count"},
	{"workload.cpu_frac", "fraction"},
	{"experiment.sims", "count"},
	{"experiment.point_s_mean", "s"},
	{"experiment.point_s_max", "s"},
	{"experiment.parallel_eff", "fraction"},
	{"runcache.puts", "count"},
	{"runcache.hits", "count"},
	{"runcache.misses", "count"},
	{"runcache.warm_hit_frac", "fraction"},
	{"runcache.replay_s", "s"},
	{"runtime.cpu_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_b_per_event", "B"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.live_heap_mb", "MB"},
	{"runtime.max_rss_mb", "MB"},
	{"metrics.overhead_frac", "fraction"},
	{"audit.overhead_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// cpuLayers are the layers whose profile share is reported as
// "<layer>.cpu_frac".
var cpuLayers = []string{"sim", "link", "node", "queue", "tcp", "topology", "workload", "runtime"}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// deadline bounds one benchmark invocation, children included, so it
// always ends well within the three minutes a run is allowed.
const deadline = 170 * time.Second

// bench is one invocation of the benchmark.
type bench struct {
	ctx      context.Context
	root     string // repository checkout
	work     string // scratch directory for profiles and caches
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	pins     pinFile

	attempted, failed int
	problems          []string
	unpinned          bool // a digest was checked against no pin
}

// fail records a failed run.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		workload  = flag.String("workload", "", "workload to run: long_lived, short_flows or cc_sweep")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Int("seconds", 30, "how long to measure")
		trace     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		root      = flag.String("root", ".", "repository checkout to benchmark (run.sh passes it)")
		child     = flag.String("child", "", "internal: run one simulation of this workload and print its result")
		childMode = flag.String("mode", string(modePlain), "internal: observers of a -child run (plain, probe, metrics, audit)")
		setupOnly = flag.Bool("setup-only", false, "internal: -child builds the scenario and stops before its first Run")
		profile   = flag.String("profile", "", "internal: -child writes a CPU profile here")
	)
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *seed, mode(*childMode), *setupOnly, *profile); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("--seconds must be at least 1 and --trace 0 or 1")
	}
	os.Exit(run(*root, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// run measures one workload and reports it. It returns the exit code:
// 0 for a correct result, 1 for an incorrect one or none.
func run(root, workload string, seed int64, seconds time.Duration, trace bool) int {
	pins, err := loadPins()
	if err != nil {
		log.Print(err)
		return 1
	}
	if root, err = filepath.Abs(root); err != nil {
		log.Print(err)
		return 1
	}
	// An interrupt or the deadline kills the running child, so every
	// process the benchmark started has ended when it returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(work)
	b := &bench{ctx: ctx, root: root, work: work, workload: workload, seed: seed, seconds: seconds, trace: trace, pins: pins}

	var values map[string][]float64
	switch {
	case workload == "cc_sweep":
		values, err = b.ccSweep()
	case setups[workload] != nil:
		values, err = b.inProcess()
	default:
		err = fmt.Errorf("unknown workload %q (want long_lived, short_flows or cc_sweep)", workload)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if !b.report(values).Correct {
		return 1
	}
	return 0
}

// report prints every metric by name and unit, with its sample count
// and spread, then the JSON result line, and returns the result. Each
// metric's value is the median of its samples.
func (b *bench) report(samples map[string][]float64) result {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s, seed %d, trace %v\n", b.workload, b.seed, b.trace)
	for _, d := range defs {
		xs := samples[d.name]
		v := median(xs)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-26s %16.6g %-8s", d.name, v, d.unit)
		if len(xs) > 1 {
			fmt.Printf(" (n=%d, quartiles %.6g–%.6g", len(xs), percentile(xs, 25), percentile(xs, 75))
			if p, ok := tailPercentile(len(xs)); ok {
				fmt.Printf(", p%g %.6g", p, percentile(xs, p))
			}
			fmt.Print(")")
		}
		fmt.Println()
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("  %-26s %16.6g fraction (%d of %d runs)\n", "failed_frac", frac, b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	if b.unpinned {
		fmt.Printf("  UNPINNED: %s has no digest pinned for seed %d (pinned: %s); its runs were checked only against each other and the outside checks\n",
			b.workload, b.seed, b.pins.pinnedSeeds(b.workload))
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	return res
}

// timeLeft reports whether another step expected to take about est can
// still finish within the measurement budget that started at start.
func (b *bench) timeLeft(start time.Time, est time.Duration) bool {
	return time.Since(start)+est <= b.seconds
}
