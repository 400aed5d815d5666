// Command paperexp regenerates the figures and tables of "Sizing Router
// Buffers" (SIGCOMM 2004). Each experiment id matches DESIGN.md's
// per-experiment index:
//
//	paperexp -exp fig2     single-flow sawtooth at B = RTT x C (also figs 3)
//	paperexp -exp fig4     underbuffered single flow
//	paperexp -exp fig5     overbuffered single flow
//	paperexp -exp fig6     aggregate-window distribution vs Gaussian
//	paperexp -exp fig7     min buffer vs n for utilization targets
//	paperexp -exp fig8     min buffer for short flows vs the M/G/1 model
//	paperexp -exp fig9     AFCT: RTTxC vs RTTxC/sqrt(n) buffers
//	paperexp -exp fig10    the Cisco-GSR utilization table (model vs sim)
//	paperexp -exp fig11    the production-mix table
//	paperexp -exp sync     synchronization vs flow count ablation
//	paperexp -exp red      fig10 under RED
//	paperexp -exp pareto   fig9 with bounded-Pareto flow sizes
//
// plus the extensions beyond the paper's own artifacts:
//
//	paperexp -exp pacing     paced vs ACK-clocked senders at tiny buffers
//	paperexp -exp smooth     slow access links vs the M/D/1 bound
//	paperexp -exp internet2  the §5.3 backbone at 0.5% of a 1s buffer
//	paperexp -exp multihop   per-link sqrt(n) rule on two bottlenecks
//	paperexp -exp variants   Reno / NewReno / SACK / Tahoe robustness
//	paperexp -exp ecn        RED marking vs dropping
//	paperexp -exp harpoon    closed-loop session traffic (§5.2 methodology)
//	paperexp -exp rttspread  RTT heterogeneity vs synchronization (§3)
//	paperexp -exp ccfamilies buffer requirement vs n per CC family
//	                         (CUBIC and BBR against the 2004 sqrt rule)
//	paperexp -exp flashcrowd buffer sizes vs a traffic surge: arrivals and
//	                         the long-lived population n(t) spike together
//	                         (-workload swaps in another profile shape)
//	paperexp -exp adversarial worst-case traffic vs the buffer ladder:
//	                         synchronized pulse trains, lockstep AIMD
//	                         cohorts and a loaded parking-lot chain
//	                         (-adversary restricts to one pattern)
//	paperexp -exp probe      black-box probe validation: estimate buffer
//	                         size and classify the drop discipline of
//	                         known queues, then score the answers
//	paperexp -exp all        everything above
//
// -quick shrinks every experiment (lower rates, fewer points, shorter
// windows) for a fast smoke run; full runs use the paper's parameters.
// -csv DIR writes the figure time series / curves as CSV files; -svg DIR
// renders the figures as SVG.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/plot"
	"bufsim/internal/runcache"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperexp: ")
	var (
		exp      = flag.String("exp", "all", "experiment id (fig2..fig11, sync, red, pareto, an extension such as variants, codel or ccfamilies — see the doc comment for the full list — or all)")
		quick    = flag.Bool("quick", false, "scaled-down parameters for a fast run")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csvDir   = flag.String("csv", "", "directory to write CSV series into (optional)")
		svgDir   = flag.String("svg", "", "directory to write SVG figures into (optional)")
		metOut   = flag.String("metrics", "", "write run telemetry to this JSON file")
		cpuprof  = flag.String("pprof", "", "write a CPU profile to this file")
		par      = flag.Int("parallel", 0, "max simulations in flight per sweep (0: all CPUs); results are identical at any setting")
		auditOn  = flag.Bool("audit", false, "run every experiment under the conservation-law checker; violations are logged and the run exits nonzero")
		cacheOn  = flag.Bool("cache", false, "memoize per-point results in a content-addressed store; a re-run with identical parameters replays from disk")
		cacheDir = flag.String("cachedir", filepath.Join("results", "cache"), "directory for the -cache store")
		resume   = flag.Bool("resume", false, "continue an interrupted run from its checkpoint manifests (implies -cache)")
		verify   = flag.Bool("cache-verify", false, "recompute a sample of cache hits and fail on any digest mismatch (implies -cache)")
		wlArg    = flag.String("workload", "", "workload profile for the flashcrowd experiment: a preset name (see bufsim.ProfileNames) or a profile .json file")
		advArg   = flag.String("adversary", "", "restrict -exp adversarial to one pattern ("+strings.Join(adversary.PatternNames(), ", ")+"); default all")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	r := runner{quick: *quick, seed: *seed, csvDir: *csvDir, svgDir: *svgDir, parallel: *par, workload: *wlArg, adversary: *advArg}
	if *resume || *verify {
		*cacheOn = true
	}
	if *cacheOn {
		store, err := runcache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		if *verify {
			store.SetVerifySample(verifySample)
		}
		r.cache = store
		r.resume = *resume
	}
	if *metOut != "" {
		r.metrics = metrics.New()
	}
	if *auditOn {
		// Log the first violations as they happen (the auditor itself also
		// stores a bounded sample); the summary below reports the total.
		var logged int64
		r.audit = audit.New(audit.OnViolation(func(v audit.Violation) {
			if logged < 20 {
				log.Printf("audit: %s", v)
			}
			logged++
		}))
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
			"fig11", "sync", "red", "pareto", "pacing", "smooth", "internet2",
			"multihop", "variants", "ecn", "harpoon", "rttspread", "codel",
			"ccfamilies", "flashcrowd", "adversarial", "probe"}
	}
	// The run manifest records which experiments of this exact invocation
	// have already printed their output, so -resume skips straight to the
	// first unfinished one.
	var man *runcache.RunManifest
	if r.cache != nil {
		runKey := runcache.Key("paperexp-run-v1", "run", struct {
			Ids   []string
			Quick bool
			Seed  int64
		}{ids, *quick, *seed})
		man = r.cache.Run(runKey, r.resume)
	}
	for _, id := range ids {
		if man.IsDone(id) {
			fmt.Printf("=== %s === (done in a previous run, skipped)\n\n", id)
			continue
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", id)
		if err := r.run(id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		man.MarkDone(id)
	}
	man.Finish()
	if r.cache != nil {
		s := r.cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%.0f%% hit rate), %d stored, %d verified\n",
			s.Hits, s.Misses, 100*s.HitRate(), s.Puts, s.Verified)
		if fails := r.cache.VerifyFailures(); len(fails) > 0 {
			for _, f := range fails {
				log.Printf("cache-verify: %s point %s recomputed differently", f.Kind, f.Key[:12])
			}
			log.Fatalf("cache-verify: %d of %d sampled hits mismatched", len(fails), s.Verified)
		}
	}
	if r.metrics != nil {
		f, err := os.Create(*metOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.metrics.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *metOut)
	}
	if r.audit != nil {
		if n := r.audit.Count(); n > 0 {
			log.Fatalf("audit: %d invariant violation(s); first stored:\n%s", n, r.audit)
		}
		fmt.Println("audit: all invariants held")
	}
}

type runner struct {
	quick     bool
	seed      int64
	csvDir    string
	svgDir    string
	parallel  int    // worker bound for the sweeping experiments; 0 = all CPUs
	workload  string // -workload: profile preset name or .json path
	adversary string // -adversary: restrict the adversarial sweep to one pattern
	metrics   *metrics.Registry
	audit     *audit.Auditor  // nil unless -audit
	cache     *runcache.Store // nil unless -cache
	resume    bool
}

// verifySample is the fraction of cache hits -cache-verify recomputes.
const verifySample = 0.25

// child returns a fresh registry for one experiment's telemetry when
// -metrics was requested, else nil (telemetry disabled).
func (r runner) child() *metrics.Registry {
	if r.metrics == nil {
		return nil
	}
	return metrics.New()
}

// mergeMetrics folds one experiment's registry into the master dump under
// the experiment id.
func (r runner) mergeMetrics(id string, child *metrics.Registry) {
	if r.metrics != nil && child != nil {
		r.metrics.Merge(id, child)
	}
}

// writeSVG renders a chart into the svg directory, if one was requested.
func (r runner) writeSVG(name string, c *plot.Chart) error {
	if r.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.svgDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.svgDir, name+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Render(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func (r runner) run(id string) error {
	switch id {
	case "fig2", "fig3":
		return r.singleFlow(1.0, "fig2_rule_of_thumb")
	case "fig4":
		return r.singleFlow(0.125, "fig4_underbuffered")
	case "fig5":
		return r.singleFlow(2.0, "fig5_overbuffered")
	case "fig6":
		return r.windowDist()
	case "fig7":
		return r.minBuffer()
	case "fig8":
		return r.shortFlows()
	case "fig9":
		return r.afct(workload.GeometricSize(14), "fig9")
	case "pareto":
		return r.afct(workload.ParetoSize{Shape: 1.2, Min: 2, Max: 2000}, "pareto")
	case "fig10":
		return r.table(false)
	case "red":
		return r.table(true)
	case "fig11":
		return r.production()
	case "sync":
		return r.sync()
	case "pacing":
		return r.pacing()
	case "internet2":
		return r.backbone()
	case "multihop":
		return r.multihop()
	case "variants":
		return r.variants()
	case "ecn":
		return r.ecn()
	case "harpoon":
		return r.harpoon()
	case "rttspread":
		return r.rttSpread()
	case "codel":
		return r.codel()
	case "ccfamilies":
		return r.ccFamilies()
	case "flashcrowd":
		return r.flashCrowd()
	case "adversarial":
		return r.adversarial()
	case "probe":
		return r.probeLadder()
	case "smooth":
		return r.smoothing()
	default:
		return fmt.Errorf("unknown experiment %q (see -help)", id)
	}
}

func (r runner) writeCSV(name string, series ...*trace.Series) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCSV(f, series...); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func (r runner) singleFlow(factor float64, name string) error {
	cfg := experiment.SingleFlowConfig{BufferFactor: factor, Metrics: r.child(), Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.Warmup, cfg.Measure = 60*units.Second, 60*units.Second
	}
	res := experiment.RunSingleFlow(cfg)
	r.mergeMetrics(name, cfg.Metrics)
	fmt.Printf("BDP %d pkts, buffer %d pkts (%.3gx)\n", res.BDPPackets, res.BufferPackets, factor)
	fmt.Printf("utilization %.2f%%, mean queue %.1f pkts, min queue seen %.0f pkts\n",
		100*res.Utilization, res.MeanQueue, res.MinQueueSeen)
	fmt.Println(trace.ASCIIPlot(res.Cwnd.Window(res.Cwnd.Times[0], res.Cwnd.Times[0]+60), 72, 10))
	fmt.Println(trace.ASCIIPlot(res.Queue.Window(res.Queue.Times[0], res.Queue.Times[0]+60), 72, 8))
	if err := r.writeCSV(name, res.Cwnd, res.Queue); err != nil {
		return err
	}
	cwnd := res.Cwnd.Window(res.Cwnd.Times[0], res.Cwnd.Times[0]+60).Downsample(1200)
	qp := res.Queue.Window(res.Queue.Times[0], res.Queue.Times[0]+60).Downsample(1200)
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Single flow, B = %.3gx RTTxC (util %.1f%%)", factor, 100*res.Utilization),
		XLabel: "time (s)", YLabel: "packets",
	}
	chart.Add("cwnd W(t)", plot.Line, cwnd.Times, cwnd.Values)
	chart.Add("queue Q(t)", plot.Line, qp.Times, qp.Values)
	return r.writeSVG(name, chart)
}

func (r runner) windowDist() error {
	cfg := experiment.WindowDistConfig{Seed: r.seed, N: 200, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.N = 80
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 30*units.Second
	}
	res := experiment.RunWindowDist(cfg)
	if err := experiment.Render(os.Stdout, res); err != nil {
		return err
	}
	hist := &trace.Series{Name: "density"}
	normal := &trace.Series{Name: "normal_fit"}
	for i := 0; i < res.Histogram.NumBins(); i++ {
		center, _ := res.Histogram.Bin(i)
		hist.Times = append(hist.Times, center)
		hist.Values = append(hist.Values, res.Histogram.Density(i))
		z := (center - res.Mean) / res.StdDev
		normal.Times = append(normal.Times, center)
		normal.Values = append(normal.Values, math.Exp(-z*z/2)/(res.StdDev*math.Sqrt(2*math.Pi)))
	}
	if err := r.writeCSV("fig6_window_distribution", hist, normal); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Aggregate window distribution, n=%d (KS %.3f)", res.N, res.KS),
		XLabel: "sum of congestion windows (packets)", YLabel: "probability density",
	}
	chart.Add("measured", plot.Line, hist.Times, hist.Values)
	chart.Add("normal fit", plot.Line, normal.Times, normal.Values)
	return r.writeSVG("fig6_window_distribution", chart)
}

func (r runner) minBuffer() error {
	cfg := experiment.MinBufferConfig{Seed: r.seed, Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{25, 50, 100, 200}
		cfg.Targets = []float64{0.98, 0.995}
		cfg.LadderPoints = 7
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	res := experiment.RunMinBufferSweep(cfg)
	if err := experiment.Render(os.Stdout, res); err != nil {
		return err
	}
	curve := &trace.Series{Name: "utilization"}
	for _, s := range res.Ladder {
		curve.Times = append(curve.Times, float64(s.N)*1e6+float64(s.Buffer))
		curve.Values = append(curve.Values, s.Utilization)
	}
	if err := r.writeCSV("fig7_ladder", curve); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  "Minimum buffer vs number of long-lived flows",
		XLabel: "flows n", YLabel: "buffer (packets)",
		XLog: true, YLog: true,
	}
	byTarget := map[float64][][2]float64{}
	var targets []float64
	var rule [][2]float64
	seen := map[int]bool{}
	for _, p := range res.Points {
		if _, ok := byTarget[p.Target]; !ok {
			targets = append(targets, p.Target)
		}
		byTarget[p.Target] = append(byTarget[p.Target], [2]float64{float64(p.N), float64(p.MinBuffer)})
		if !seen[p.N] {
			seen[p.N] = true
			rule = append(rule, [2]float64{float64(p.N), float64(p.SqrtRule)})
		}
	}
	addSeries := func(name string, pts [][2]float64, style plot.Style) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		chart.Add(name, style, xs, ys)
	}
	for _, target := range targets {
		addSeries(fmt.Sprintf("min buffer @ %.1f%%", 100*target), byTarget[target], plot.LinePoints)
	}
	addSeries("RTTxC/sqrt(n)", rule, plot.Line)
	return r.writeSVG("fig7_min_buffer", chart)
}

func (r runner) shortFlows() error {
	cfg := experiment.ShortFlowBufferConfig{Seed: r.seed, Metrics: r.child(), Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.Rates = []units.BitRate{20 * units.Mbps, 60 * units.Mbps}
		cfg.Warmup, cfg.Measure = 5*units.Second, 15*units.Second
	} else {
		// The figure's x-axis: sweep the flow length (burst structure).
		cfg.FlowLens = []int64{6, 14, 30, 62}
	}
	points := experiment.RunShortFlowBuffer(cfg)
	r.mergeMetrics("fig8", cfg.Metrics)
	if err := experiment.Render(os.Stdout, points); err != nil {
		return err
	}

	chart := &plot.Chart{
		Title:  "Short flows: min buffer for AFCT within 12.5% of infinite",
		XLabel: "flow length (segments)", YLabel: "buffer (packets)",
	}
	byRate := map[units.BitRate][][2]float64{}
	var rates []units.BitRate
	var model [][2]float64
	seenLen := map[int64]bool{}
	for _, p := range points {
		if _, ok := byRate[p.Rate]; !ok {
			rates = append(rates, p.Rate)
		}
		byRate[p.Rate] = append(byRate[p.Rate], [2]float64{float64(p.FlowLen), float64(p.MinBuffer)})
		if !seenLen[p.FlowLen] {
			seenLen[p.FlowLen] = true
			model = append(model, [2]float64{float64(p.FlowLen), p.ModelBuffer})
		}
	}
	add := func(name string, pts [][2]float64, style plot.Style) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		chart.Add(name, style, xs, ys)
	}
	for _, rate := range rates {
		add(rate.String(), byRate[rate], plot.LinePoints)
	}
	add("M/G/1 model (P=0.025)", model, plot.Line)
	return r.writeSVG("fig8_short_flow_buffer", chart)
}

func (r runner) afct(sizes workload.SizeDist, name string) error {
	cfg := experiment.AFCTComparisonConfig{Seed: r.seed, Sizes: sizes, Metrics: r.child(), Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.NLong = 60
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	fmt.Printf("short-flow sizes: %v\n", sizes)
	res := experiment.RunAFCTComparison(cfg)
	r.mergeMetrics(name, cfg.Metrics)
	return experiment.Render(os.Stdout, res)
}

func (r runner) table(red bool) error {
	cfg := experiment.UtilizationTableConfig{Seed: r.seed, UseRED: red, Metrics: r.child(), Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{50, 100}
		cfg.Factors = []float64{0.5, 1, 2}
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	if red {
		fmt.Println("queue discipline: RED")
	}
	rows := experiment.RunUtilizationTable(cfg)
	id := "fig10"
	if red {
		id = "red"
	}
	r.mergeMetrics(id, cfg.Metrics)
	return experiment.Render(os.Stdout, rows)
}

func (r runner) production() error {
	cfg := experiment.ProductionConfig{Seed: r.seed, Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.NLong = 30
		cfg.Buffers = []int{8, 46, 300}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	rows := experiment.RunProduction(cfg)
	return experiment.Render(os.Stdout, rows)
}

func (r runner) pacing() error {
	cfg := experiment.PacingConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.N = 20
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.BufferFactors = []float64{0.25, 1}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunPacingAblation(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) smoothing() error {
	cfg := experiment.SmoothingConfig{Seed: r.seed, TailAt: 20, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 8*units.Second, 30*units.Second
	}
	points := experiment.RunSmoothing(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) backbone() error {
	cfg := experiment.BackboneConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.BottleneckRate = 600 * units.Mbps
		cfg.N = 600
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	res := experiment.RunBackbone(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) multihop() error {
	cfg := experiment.MultiHopConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.LinkRate = 20 * units.Mbps
		cfg.NPerGroup = 40
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	res := experiment.RunMultiHop(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) variants() error {
	cfg := experiment.VariantConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.N = 60
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunVariantAblation(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) ecn() error {
	cfg := experiment.ECNConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	res := experiment.RunECN(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) harpoon() error {
	cfg := experiment.HarpoonConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Sessions = 500
		cfg.Warmup, cfg.Measure = 15*units.Second, 25*units.Second
	}
	res := experiment.RunHarpoon(cfg)
	return experiment.Render(os.Stdout, res)
}

func (r runner) codel() error {
	cfg := experiment.CoDelConfig{Seed: r.seed, Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	rows := experiment.RunCoDel(cfg)
	return experiment.Render(os.Stdout, rows)
}

// ccFamilies is the updated-theory figure: the buffer each
// congestion-control family needs to reach (a fraction of) its own
// attainable utilization, as the flow count grows, against the 2004
// rule RTTxC/sqrt(n). Loss-based families track the rule; BBR's curve
// decouples from it.
func (r runner) ccFamilies() error {
	cfg := experiment.CCFamilyConfig{Seed: r.seed, Metrics: r.child(), Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{25, 50, 100}
		cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
	}
	table := experiment.RunCCFamily(cfg)
	r.mergeMetrics("ccfamilies", cfg.Metrics)
	if err := experiment.Render(os.Stdout, table); err != nil {
		return err
	}

	byVariant := map[string]*trace.Series{}
	var order []string
	rule := &trace.Series{Name: "sqrt_rule"}
	seenN := map[int]bool{}
	for _, p := range table {
		name := p.Variant.String()
		s, ok := byVariant[name]
		if !ok {
			s = &trace.Series{Name: name}
			byVariant[name] = s
			order = append(order, name)
		}
		s.Times = append(s.Times, float64(p.N))
		s.Values = append(s.Values, float64(p.MinBuffer))
		if !seenN[p.N] {
			seenN[p.N] = true
			rule.Times = append(rule.Times, float64(p.N))
			rule.Values = append(rule.Values, float64(p.SqrtRule))
		}
	}
	series := make([]*trace.Series, 0, len(order)+1)
	for _, name := range order {
		series = append(series, byVariant[name])
	}
	series = append(series, rule)
	if err := r.writeCSV("ccfamilies_min_buffer", series...); err != nil {
		return err
	}

	chart := &plot.Chart{
		Title:  "Required buffer vs flows across congestion-control families",
		XLabel: "flows n", YLabel: "buffer (packets)",
		XLog: true, YLog: true,
	}
	for _, name := range order {
		s := byVariant[name]
		chart.Add("min buffer ("+name+")", plot.LinePoints, s.Times, s.Values)
	}
	chart.Add("RTTxC/sqrt(n)", plot.Line, rule.Times, rule.Values)
	return r.writeSVG("ccfamilies_min_buffer", chart)
}

// flashCrowd is the time-varying-workload figure: how each buffer size
// rides out a surge where the arrival rate and the long-lived population
// n(t) spike together — the regime the 2004 rule's fixed n never
// modeled. -workload swaps in another profile shape (a preset name or a
// profile .json); curves are rescaled to the experiment's peak load and
// population, so they act as shapes.
func (r runner) flashCrowd() error {
	cfg := experiment.FlashCrowdConfig{Seed: r.seed, Metrics: r.child(), Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.workload != "" {
		p, err := profile.FromArg(r.workload)
		if err != nil {
			return err
		}
		cfg.Profile = p
	}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Stations = 20
		cfg.PeakFlows = 8
		cfg.Buffers = []int{6, 25, 100, 250}
		cfg.Warmup = 2 * units.Second
		prof := cfg.Profile
		if len(prof.Arrival) == 0 && len(prof.Population) == 0 {
			prof = profile.FlashCrowd.Profile()
		}
		compressed, err := prof.Compress(4)
		if err != nil {
			return err
		}
		cfg.Profile = compressed
	}
	shape := cfg.Profile.Name
	if shape == "" {
		shape = profile.FlashCrowd.String()
	}
	fmt.Printf("workload profile: %s\n", shape)
	rows := experiment.RunFlashCrowd(cfg)
	r.mergeMetrics("flashcrowd", cfg.Metrics)
	if err := experiment.Render(os.Stdout, rows); err != nil {
		return err
	}

	util := &trace.Series{Name: "utilization"}
	loss := &trace.Series{Name: "loss_rate"}
	meanQ := &trace.Series{Name: "mean_queue"}
	peakN := &trace.Series{Name: "peak_active"}
	for _, row := range rows {
		x := float64(row.Buffer)
		util.Times = append(util.Times, x)
		util.Values = append(util.Values, row.Utilization)
		loss.Times = append(loss.Times, x)
		loss.Values = append(loss.Values, row.LossRate)
		meanQ.Times = append(meanQ.Times, x)
		meanQ.Values = append(meanQ.Values, row.MeanQueue)
		peakN.Times = append(peakN.Times, x)
		peakN.Values = append(peakN.Values, row.PeakActive)
	}
	if err := r.writeCSV("flashcrowd_buffer", util, loss, meanQ, peakN); err != nil {
		return err
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Flash crowd (%s): riding out the n(t) surge", shape),
		XLabel: "buffer (packets)", YLabel: "fraction",
		XLog: true,
	}
	chart.Add("utilization", plot.LinePoints, util.Times, util.Values)
	chart.Add("loss rate", plot.LinePoints, loss.Times, loss.Values)
	return r.writeSVG("flashcrowd_buffer", chart)
}

func (r runner) adversarial() error {
	cfg := experiment.AdversarialConfig{Seed: r.seed, Metrics: r.child(), Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.adversary != "" {
		p, err := adversary.ParsePattern(r.adversary)
		if err != nil {
			return err
		}
		cfg.Patterns = []adversary.Pattern{p}
		fmt.Printf("pattern %s: %s\n", p, p.Doc())
	}
	if r.quick {
		cfg.N = 8
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.BufferFactors = []float64{0.1, 0.5, 1.0}
		cfg.Hops = 2
		cfg.Warmup, cfg.Measure = 2*units.Second, 6*units.Second
	}
	table := experiment.RunAdversarial(cfg)
	r.mergeMetrics("adversarial", cfg.Metrics)
	if err := experiment.Render(os.Stdout, table); err != nil {
		return err
	}

	// One CSV per pattern: the failure-mode curves over the buffer ladder.
	byPattern := map[string][]experiment.AdversarialRow{}
	var order []string
	for _, row := range table {
		name := row.Pattern.String()
		if _, ok := byPattern[name]; !ok {
			order = append(order, name)
		}
		byPattern[name] = append(byPattern[name], row)
	}
	for _, name := range order {
		util := &trace.Series{Name: "utilization"}
		loss := &trace.Series{Name: "loss_rate"}
		for _, row := range byPattern[name] {
			util.Times = append(util.Times, row.BufferFactor)
			util.Values = append(util.Values, row.Utilization)
			loss.Times = append(loss.Times, row.BufferFactor)
			loss.Values = append(loss.Values, row.LossRate)
		}
		if err := r.writeCSV("adversarial_"+name, util, loss); err != nil {
			return err
		}
	}
	return nil
}

func (r runner) probeLadder() error {
	cfg := experiment.ProbeLadderConfig{Seed: r.seed, Cache: r.cache}
	if r.quick {
		cfg.Limits = []int{16, 64, 256}
	}
	table := experiment.RunProbeLadder(cfg)
	return experiment.Render(os.Stdout, table)
}

func (r runner) rttSpread() error {
	cfg := experiment.RTTSpreadConfig{Seed: r.seed, Parallelism: r.parallel, Audit: r.audit, Cache: r.cache, Resume: r.resume}
	if r.quick {
		cfg.N = 100
		cfg.BottleneckRate = 40 * units.Mbps
		cfg.Warmup, cfg.Measure = 10*units.Second, 25*units.Second
	}
	points := experiment.RunRTTSpread(cfg)
	return experiment.Render(os.Stdout, points)
}

func (r runner) sync() error {
	cfg := experiment.SyncConfig{Seed: r.seed, Audit: r.audit, Cache: r.cache}
	if r.quick {
		cfg.BottleneckRate = 20 * units.Mbps
		cfg.Ns = []int{5, 30, 120}
		cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
	}
	points := experiment.RunSyncAblation(cfg)
	return experiment.Render(os.Stdout, points)
}
