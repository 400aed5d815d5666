package experiment

import (
	"math"
	"time"

	"bufsim/internal/metrics"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// AFCTComparisonConfig reproduces Fig. 9: average flow completion times of
// short flows competing with long-lived flows, under the rule-of-thumb
// buffer (RTT x C) versus the paper's buffer (RTT x C / sqrt(n)).
type AFCTComparisonConfig struct {
	Seed int64

	NLong           int
	ShortLoad       float64           // fraction of bottleneck offered by short flows
	Sizes           workload.SizeDist // short-flow length distribution
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize
	MaxWindow       int // short flows' receiver cap

	// Variant, DelayedAck and Paced apply to every sender (long-lived and
	// short), as in LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches each regime's bottleneck to RED sized to that
	// regime's buffer.
	UseRED bool

	Warmup, Measure units.Duration

	// MeanQueueIncludesWarmup reverts MeanQueue to averaging from t=0
	// instead of the measurement window (see LongLivedConfig).
	MeanQueueIncludesWarmup bool

	Env
}

func (c AFCTComparisonConfig) withDefaults() AFCTComparisonConfig {
	if c.NLong == 0 {
		c.NLong = 100
	}
	if c.ShortLoad == 0 {
		c.ShortLoad = 0.2
	}
	if c.Sizes == nil {
		c.Sizes = workload.GeometricSize(14)
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 50 * units.Mbps
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = 10 * units.Millisecond
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 140 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// AFCTOutcome is the result for one buffer sizing.
type AFCTOutcome struct {
	Label         string
	BufferPackets int
	AFCT          units.Duration
	Completed     int
	Censored      int
	Utilization   float64
	MeanQueue     float64 // packets
}

// MixedConfig is one mixed-traffic run: long-lived flows plus Poisson
// short flows over a single drop-tail bottleneck of explicit buffer size.
// It is the single-buffer building block RunAFCTComparison pairs up, and
// the scenario the public API exposes as SimulateMix.
type MixedConfig struct {
	Seed int64

	NLong           int
	ShortLoad       float64
	Sizes           workload.SizeDist
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize
	MaxWindow       int
	BufferPackets   int

	// Variant, DelayedAck and Paced apply to every sender, as in
	// LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to RED sized to BufferPackets.
	UseRED bool

	Warmup, Measure units.Duration

	// MeanQueueIncludesWarmup reverts MeanQueue to averaging from t=0
	// instead of the measurement window (see LongLivedConfig).
	MeanQueueIncludesWarmup bool

	Env
}

// RunMixed executes one mixed-traffic scenario. Its cache entry is
// shared with RunAFCTComparison points that lower to the same scenario.
func RunMixed(cfg MixedConfig) AFCTOutcome {
	base := AFCTComparisonConfig{
		Seed:            cfg.Seed,
		NLong:           cfg.NLong,
		ShortLoad:       cfg.ShortLoad,
		Sizes:           cfg.Sizes,
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.BottleneckDelay,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		SegmentSize:     cfg.SegmentSize,
		MaxWindow:       cfg.MaxWindow,
		Variant:         cfg.Variant,
		DelayedAck:      cfg.DelayedAck,
		Paced:           cfg.Paced,
		UseRED:          cfg.UseRED,
		Warmup:          cfg.Warmup,
		Measure:         cfg.Measure,
		Env:             cfg.pointEnv(),

		MeanQueueIncludesWarmup: cfg.MeanQueueIncludesWarmup,
	}.withDefaults()
	buffer := cfg.BufferPackets
	if buffer < 1 {
		buffer = 1
	}
	return runMixedOnce(base, "mixed", buffer, cfg.Metrics)
}

// AFCTComparisonResult pairs the two buffer regimes.
type AFCTComparisonResult struct {
	BDPPackets int
	RuleThumb  AFCTOutcome // B = RTT x C
	SqrtRule   AFCTOutcome // B = RTT x C / sqrt(n)
}

// TraceConfig replays a recorded flow trace (arrival time + size per
// flow) through a dumbbell — the bridge from synthetic workloads to real
// flow-level data.
type TraceConfig struct {
	Seed int64

	Flows          []workload.FlowSpec
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize
	MaxWindow      int
	BufferPackets  int // 0 = unlimited
	Stations       int

	// Variant, DelayedAck and Paced apply to every replayed sender, as in
	// LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to RED sized to BufferPackets
	// (which must then be positive).
	UseRED bool

	// Drain bounds how long after the last arrival the simulation keeps
	// running for stragglers (default 60 s).
	Drain units.Duration

	Env
}

// TraceResult summarizes a replayed trace.
type TraceResult struct {
	Completed   int
	Censored    int
	AFCT        units.Duration
	Utilization float64 // over [first arrival, last arrival]
}

// RunTrace replays the trace and reports completion statistics. With
// cfg.Cache set the result is memoized.
func RunTrace(cfg TraceConfig) TraceResult {
	if len(cfg.Flows) == 0 {
		return TraceResult{}
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = units.DefaultSegment
	}
	if cfg.MaxWindow == 0 {
		cfg.MaxWindow = 43
	}
	if cfg.Stations == 0 {
		cfg.Stations = 50
	}
	if cfg.RTTMin == 0 {
		cfg.RTTMin = 60 * units.Millisecond
	}
	if cfg.RTTMax == 0 {
		cfg.RTTMax = 140 * units.Millisecond
	}
	if cfg.Drain == 0 {
		cfg.Drain = 60 * units.Second
	}
	return memoRun(cfg.Cache, "trace", cfg, cfg.Metrics != nil || cfg.Audit != nil, func() TraceResult {
		return runTrace(cfg)
	})
}

// runTrace is the uncached body of RunTrace; cfg has defaults applied.
func runTrace(cfg TraceConfig) TraceResult {
	limit := queue.Unlimited()
	if cfg.BufferPackets > 0 {
		limit = queue.PacketLimit(cfg.BufferPackets)
	}
	wallStart := time.Now()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	topoCfg := topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          limit,
		Stations:        cfg.Stations,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		Auditor:         cfg.Audit,
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(cfg.BufferPackets, cfg.SegmentSize, cfg.BottleneckRate, rng.Fork(), false)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(cfg.Metrics, sched, d)
	records := workload.Replay(d, cfg.Flows, tcp.Config{
		SegmentSize: cfg.SegmentSize,
		MaxWindow:   cfg.MaxWindow,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	})
	last := units.Epoch.Add(cfg.Flows[len(cfg.Flows)-1].Start)
	first := units.Epoch.Add(cfg.Flows[0].Start)
	sched.Run(first)
	busy := d.Bottleneck.BusyTime()
	sched.Run(last.Add(cfg.Drain))

	res := TraceResult{}
	if last > first {
		res.Utilization = float64(d.Bottleneck.BusyTime()-busy) / float64(last.Sub(first)+cfg.Drain)
	}
	var sum units.Duration
	for _, r := range records {
		if r.Completed == units.Never {
			res.Censored++
			continue
		}
		res.Completed++
		sum += r.Duration()
	}
	if res.Completed > 0 {
		res.AFCT = sum / units.Duration(res.Completed)
	}
	observeWallTime(cfg.Metrics, wallStart, sched)
	return res
}

// runMixedOnce runs one mixed-traffic scenario at one buffer size, wiring
// telemetry into reg when non-nil. cfg must already have defaults applied.
// With cfg.Cache set the outcome is memoized, keyed on (scenario, label,
// buffer) — RunMixed and RunAFCTComparison share entries when they lower
// to the same point.
func runMixedOnce(cfg AFCTComparisonConfig, label string, buffer int, reg *metrics.Registry) AFCTOutcome {
	type mixedKey struct {
		Base   AFCTComparisonConfig
		Label  string
		Buffer int
	}
	key := mixedKey{Base: cfg, Label: label, Buffer: buffer}
	return memoRun(cfg.Cache, "mixed", key, reg != nil || cfg.Audit != nil, func() AFCTOutcome {
		return runMixedUncached(cfg, label, buffer, reg)
	})
}

// runMixedUncached is the uncached body of runMixedOnce.
func runMixedUncached(cfg AFCTComparisonConfig, label string, buffer int, reg *metrics.Registry) AFCTOutcome {
	wallStart := time.Now()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	topoCfg := topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.BottleneckDelay,
		Buffer:          queue.PacketLimit(buffer),
		Stations:        cfg.NLong + 50,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		Auditor:         cfg.Audit,
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(buffer, cfg.SegmentSize, cfg.BottleneckRate, rng.Fork(), false)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(reg, sched, d)
	workload.StartLongLived(d, cfg.NLong,
		tcp.Config{
			SegmentSize: cfg.SegmentSize,
			Variant:     cfg.Variant,
			DelayedAck:  cfg.DelayedAck,
			Paced:       cfg.Paced,
		}, rng.Fork(), cfg.Warmup/2)
	gen := workload.NewShortFlows(workload.ShortFlowConfig{
		Dumbbell: d,
		RNG:      rng.Fork(),
		Load:     cfg.ShortLoad,
		Sizes:    cfg.Sizes,
		TCP: tcp.Config{
			SegmentSize: cfg.SegmentSize,
			MaxWindow:   cfg.MaxWindow,
			Variant:     cfg.Variant,
			DelayedAck:  cfg.DelayedAck,
			Paced:       cfg.Paced,
		},
	})
	gen.Start()

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	if d.DropTail != nil && !cfg.MeanQueueIncludesWarmup {
		d.DropTail.ResetOccupancy(warmEnd)
	}
	busySnap := d.Bottleneck.BusyTime()
	measureEnd := warmEnd.Add(cfg.Measure)
	sched.Run(measureEnd)
	util := d.Bottleneck.Utilization(busySnap, warmEnd)
	meanQ := 0.0
	if d.DropTail != nil {
		meanQ = d.DropTail.MeanOccupancy(measureEnd)
	}
	gen.Stop()
	sched.Run(measureEnd.Add(60 * units.Second)) // drain
	observeWallTime(reg, wallStart, sched)
	afct, completed, censored := gen.AFCT(warmEnd, measureEnd)
	return AFCTOutcome{
		Label: label, BufferPackets: buffer, AFCT: afct,
		Completed: completed, Censored: censored,
		Utilization: util, MeanQueue: meanQ,
	}
}

// RunAFCTComparison executes the Fig. 9 experiment. With cfg.Metrics
// set, each regime's telemetry is merged under its label ("RTT*C",
// "RTT*C/sqrt(n)").
func RunAFCTComparison(cfg AFCTComparisonConfig) AFCTComparisonResult {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize)
	small := SqrtRuleBuffer(float64(bdp), cfg.NLong)

	var thumbReg, sqrtReg *metrics.Registry
	if cfg.Metrics != nil {
		thumbReg, sqrtReg = metrics.New(), metrics.New()
	}
	res := AFCTComparisonResult{
		BDPPackets: bdp,
		RuleThumb:  runMixedOnce(cfg, "RTT*C", int(math.Max(1, float64(bdp))), thumbReg),
		SqrtRule:   runMixedOnce(cfg, "RTT*C/sqrt(n)", small, sqrtReg),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Merge(res.RuleThumb.Label, thumbReg)
		cfg.Metrics.Merge(res.SqrtRule.Label, sqrtReg)
	}
	return res
}
