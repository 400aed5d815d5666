// Command bench measures the discrete-event kernel and the end-to-end
// simulations built on it, and writes the numbers to a JSON file so the
// perf trajectory is tracked in-repo from PR to PR.
//
//	go run ./bench -out BENCH_kernel.json [-baseline prev.json]
//
// Three benchmarks run:
//
//   - kernel_churn: raw scheduler throughput — schedule + fire with a
//     rolling window of pending timers, the pattern simulations produce.
//   - sim_long_lived: one full long-lived-flow experiment (the paper's
//     core scenario), the end-to-end number the ROADMAP's "as fast as the
//     hardware allows" goal is judged by.
//   - sim_short_flows: one Poisson short-flow experiment, which stresses
//     flow setup/teardown as well as the kernel.
//
// -baseline copies the named file's "current" block into the new file's
// "baseline" block, so a checked-in BENCH_kernel.json carries the
// before/after comparison across a kernel change.
//
// -gate compares the fresh numbers against the named file's "current"
// block and exits non-zero if any benchmark's events/sec fell by more
// than -gate-pct percent (default 5). CI runs this against the
// checked-in BENCH_kernel.json so an abstraction change (say, an
// interface on the per-ACK path) cannot silently tax the kernel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// Metric is one benchmark's headline numbers.
type Metric struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  int64   `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// Block is one kernel generation's set of benchmarks.
type Block struct {
	Kernel     string            `json:"kernel"`
	Benchmarks map[string]Metric `json:"benchmarks"`
}

// File is the BENCH_kernel.json schema. Evidence is free-form recorded
// data (BENCH_scale.json keeps the measurement grid that retired the
// sharded kernel there); -baseline carries it forward unchanged.
type File struct {
	Note       string          `json:"note"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Baseline   *Block          `json:"baseline,omitempty"`
	Current    Block           `json:"current"`
	Evidence   json.RawMessage `json:"evidence,omitempty"`
}

func metric(r testing.BenchmarkResult, eventsPerOp int64) Metric {
	m := Metric{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: int64(r.AllocsPerOp()),
		BytesPerOp:  int64(r.AllocedBytesPerOp()),
		EventsPerOp: eventsPerOp,
	}
	if eventsPerOp > 0 && m.NsPerOp > 0 {
		m.EventsPerSec = float64(eventsPerOp) / (m.NsPerOp / 1e9)
	}
	return m
}

func longLivedConfig() experiment.LongLivedConfig {
	return experiment.LongLivedConfig{
		Seed: 1, N: 30, BottleneckRate: 20 * units.Mbps,
		BufferPackets: 50,
		Warmup:        5 * units.Second, Measure: 15 * units.Second,
	}
}

func shortFlowConfig() experiment.ShortFlowRunConfig {
	return experiment.ShortFlowRunConfig{
		Seed: 1, Rate: 20 * units.Mbps, Load: 0.7,
		FlowLength: 14, BufferPackets: 50,
		Warmup: 3 * units.Second, Measure: 10 * units.Second,
	}
}

// eventsProcessed runs one instrumented long-lived (or short-flow) pass
// and reads the kernel's events_processed counter, so events/sec can be
// derived from the uninstrumented timed runs (every iteration processes
// the identical event sequence — that is the determinism contract).
func eventsProcessed(run func(reg *metrics.Registry)) int64 {
	reg := metrics.New()
	run(reg)
	reg.Collect()
	return reg.Counter("sim.events_processed").Value()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		out      = flag.String("out", "BENCH_kernel.json", "output JSON path")
		baseline = flag.String("baseline", "", "previous BENCH_kernel.json whose 'current' block becomes this file's 'baseline'")
		kernel   = flag.String("kernel", kernelDescription, "kernel description recorded in the output")
		gate     = flag.String("gate", "", "BENCH_kernel.json whose 'current' block the fresh numbers must not regress against")
		gatePct  = flag.Float64("gate-pct", 5, "maximum events/sec regression (percent) tolerated by -gate")
		scale    = flag.Bool("scale", false, "run the flow-count scaling curve (see scale.go) instead of the kernel benchmarks; pair with -out BENCH_scale.json")
	)
	flag.Parse()

	f := File{
		Note:       "generated by `go run ./bench`; ns/op, allocs/op and events/sec for the event kernel and end-to-end simulations",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Current:    Block{Kernel: *kernel, Benchmarks: map[string]Metric{}},
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		var prev File
		if err := json.Unmarshal(raw, &prev); err != nil {
			log.Fatal(err)
		}
		f.Baseline = &Block{Kernel: prev.Current.Kernel, Benchmarks: prev.Current.Benchmarks}
		f.Evidence = prev.Evidence
	}

	if *scale {
		runScale(&f)
	} else {
		runKernelBenchmarks(&f)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for name, m := range f.Current.Benchmarks {
		fmt.Printf("%-16s %12.0f ns/op %8d allocs/op %10.3g events/sec\n",
			name, m.NsPerOp, m.AllocsPerOp, m.EventsPerSec)
	}
	fmt.Printf("wrote %s\n", *out)

	if *gate != "" {
		if err := checkGate(*gate, *gatePct, f.Current.Benchmarks); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gate: within %.3g%% of %s\n", *gatePct, *gate)
	}
}

// runKernelBenchmarks is the default mode: raw scheduler churn plus the
// two end-to-end paper scenarios.
func runKernelBenchmarks(f *File) {
	fmt.Println("kernel_churn...")
	churnEvents := int64(1 << 20)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelChurn(int(churnEvents))
		}
	})
	f.Current.Benchmarks["kernel_churn"] = metric(r, churnEvents)

	fmt.Println("sim_long_lived...")
	llEvents := eventsProcessed(func(reg *metrics.Registry) {
		cfg := longLivedConfig()
		cfg.Metrics = reg
		experiment.RunLongLived(cfg)
	})
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiment.RunLongLived(longLivedConfig())
		}
	})
	f.Current.Benchmarks["sim_long_lived"] = metric(r, llEvents)

	fmt.Println("sim_short_flows...")
	sfEvents := eventsProcessed(func(reg *metrics.Registry) {
		cfg := shortFlowConfig()
		cfg.Metrics = reg
		experiment.ShortFlowAFCT(cfg)
	})
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiment.ShortFlowAFCT(shortFlowConfig())
		}
	})
	f.Current.Benchmarks["sim_short_flows"] = metric(r, sfEvents)
}

// checkGate fails if any benchmark shared with the gate file's
// "current" block lost more than pct percent of its events/sec (or,
// for event-less benchmarks, gained more than pct percent ns/op).
func checkGate(path string, pct float64, fresh map[string]Metric) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref File
	if err := json.Unmarshal(raw, &ref); err != nil {
		return err
	}
	var failures []string
	for name, old := range ref.Current.Benchmarks {
		now, ok := fresh[name]
		if !ok {
			continue // gate file may carry benchmarks this build does not run
		}
		switch {
		case old.EventsPerSec > 0 && now.EventsPerSec > 0:
			if drop := 100 * (1 - now.EventsPerSec/old.EventsPerSec); drop > pct {
				failures = append(failures, fmt.Sprintf(
					"%s: %.3g events/sec -> %.3g (-%.1f%%, limit %.3g%%)",
					name, old.EventsPerSec, now.EventsPerSec, drop, pct))
			}
		case old.NsPerOp > 0:
			if rise := 100 * (now.NsPerOp/old.NsPerOp - 1); rise > pct {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op -> %.0f (+%.1f%%, limit %.3g%%)",
					name, old.NsPerOp, now.NsPerOp, rise, pct))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed against %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}
