package experiment

import (
	"fmt"
	"math"
	"time"

	"bufsim/internal/metrics"
	"bufsim/internal/model"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// ShortFlowBufferConfig reproduces Fig. 8: the minimum buffer that keeps
// the average flow completion time within AFCTFactor of the
// infinite-buffer AFCT, for short-flow-only traffic at a fixed load across
// several line rates. The paper's model curve is the M/G/1 bound at
// P(Q > B) = 0.025.
type ShortFlowBufferConfig struct {
	Seed int64

	Rates    []units.BitRate // paper: 40, 80, 200 Mb/s
	Load     float64         // paper: 0.8
	FlowLens []int64         // flow length(s) in segments

	MaxWindow      int // receiver cap; paper cites 12-43
	SegmentSize    units.ByteSize
	RTTMin, RTTMax units.Duration
	Stations       int

	// AFCTFactor is the degradation budget (paper: 1.125 = +12.5%).
	AFCTFactor float64
	// ModelDropProb is the model curve's P(Q > B) (paper: 0.025).
	ModelDropProb float64

	Warmup, Measure units.Duration

	Env
}

func (c ShortFlowBufferConfig) withDefaults() ShortFlowBufferConfig {
	if len(c.Rates) == 0 {
		c.Rates = []units.BitRate{40 * units.Mbps, 80 * units.Mbps, 200 * units.Mbps}
	}
	if c.Load == 0 {
		c.Load = 0.8
	}
	if len(c.FlowLens) == 0 {
		c.FlowLens = []int64{14}
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 140 * units.Millisecond
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.AFCTFactor == 0 {
		c.AFCTFactor = 1.125
	}
	if c.ModelDropProb == 0 {
		c.ModelDropProb = 0.025
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// ShortFlowBufferPoint is one (rate, flow length) result.
type ShortFlowBufferPoint struct {
	Rate    units.BitRate
	FlowLen int64

	// BaselineAFCT is the infinite-buffer AFCT.
	BaselineAFCT units.Duration
	// MinBuffer is the smallest probed buffer with
	// AFCT <= AFCTFactor * BaselineAFCT.
	MinBuffer int
	// AchievedAFCT is the AFCT at MinBuffer.
	AchievedAFCT units.Duration
	// ModelBuffer is the paper's M/G/1 bound at ModelDropProb.
	ModelBuffer float64
}

// ShortFlowRunConfig is one short-flow-only scenario: Poisson arrivals of
// fixed-length slow-start flows at a given load over a single bottleneck.
type ShortFlowRunConfig struct {
	Seed int64

	Rate          units.BitRate
	MeanRTT       units.Duration // station RTTs spread +-40% around this
	SegmentSize   units.ByteSize
	BufferPackets int // 0 = unlimited (the infinite-buffer baseline)
	Load          float64
	FlowLength    int64
	MaxWindow     int
	Stations      int

	// Variant, DelayedAck and Paced select the senders' congestion-control
	// behaviour, as in LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to RED sized to BufferPackets
	// (which must then be positive — RED thresholds need a capacity).
	UseRED bool

	Warmup, Measure units.Duration

	Env
}

func (c ShortFlowRunConfig) withDefaults() ShortFlowRunConfig {
	if c.MeanRTT == 0 {
		c.MeanRTT = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// shortFlowOutcome is the cacheable result of one short-flow run.
type shortFlowOutcome struct {
	AFCT      units.Duration
	Completed int
	Censored  int
}

// ShortFlowAFCT runs one short-flow scenario and returns the average flow
// completion time over the measurement window, the number of completed
// flows, and the number censored (started in the window, unfinished after
// the drain period). With cfg.Cache set the outcome is memoized.
func ShortFlowAFCT(cfg ShortFlowRunConfig) (units.Duration, int, int) {
	cfg = cfg.withDefaults()
	out := memoRun(cfg.Cache, "short-flow", cfg, cfg.Metrics != nil || cfg.Audit != nil, func() shortFlowOutcome {
		afct, completed, censored := runShortFlowAFCT(cfg)
		return shortFlowOutcome{AFCT: afct, Completed: completed, Censored: censored}
	})
	return out.AFCT, out.Completed, out.Censored
}

// runShortFlowAFCT is the uncached body of ShortFlowAFCT; cfg has
// defaults applied.
func runShortFlowAFCT(cfg ShortFlowRunConfig) (units.Duration, int, int) {
	wallStart := time.Now()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	limit := queue.Unlimited()
	if cfg.BufferPackets > 0 {
		limit = queue.PacketLimit(cfg.BufferPackets)
	}
	topoCfg := topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.Rate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          limit,
		Stations:        cfg.Stations,
		RTTMin:          cfg.MeanRTT * 6 / 10,
		RTTMax:          cfg.MeanRTT * 14 / 10,
		Auditor:         cfg.Audit,
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(cfg.BufferPackets, cfg.SegmentSize, cfg.Rate, rng.Fork(), false)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(cfg.Metrics, sched, d)
	gen := workload.NewShortFlows(workload.ShortFlowConfig{
		Dumbbell: d,
		RNG:      rng.Fork(),
		Load:     cfg.Load,
		Sizes:    workload.FixedSize(cfg.FlowLength),
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
	measureEnd := warmEnd.Add(cfg.Measure)
	sched.Run(measureEnd)
	gen.Stop()
	// Drain so flows that started in the window can complete.
	sched.Run(measureEnd.Add(30 * units.Second))
	observeWallTime(cfg.Metrics, wallStart, sched)
	return gen.AFCT(warmEnd, measureEnd)
}

// shortFlowAFCT adapts the Fig. 8 sweep's parameters to ShortFlowAFCT.
func shortFlowAFCT(cfg ShortFlowBufferConfig, rate units.BitRate, flowLen int64, buffer queue.Limit, reg *metrics.Registry) (units.Duration, int) {
	run := ShortFlowRunConfig{
		Seed:        cfg.Seed,
		Rate:        rate,
		MeanRTT:     (cfg.RTTMin + cfg.RTTMax) / 2,
		SegmentSize: cfg.SegmentSize,
		Load:        cfg.Load,
		FlowLength:  flowLen,
		MaxWindow:   cfg.MaxWindow,
		Stations:    cfg.Stations,
		Warmup:      cfg.Warmup,
		Measure:     cfg.Measure,
		Env:         Env{Metrics: reg, Audit: cfg.Audit, Cache: cfg.Cache},
	}
	if buffer.Packets > 0 {
		run.BufferPackets = buffer.Packets
	}
	afct, _, censored := ShortFlowAFCT(run)
	return afct, censored
}

// RunShortFlowBuffer executes the Fig. 8 experiment. Points (rate x flow
// length) run in parallel; the bisection within a point is inherently
// sequential. Every probe of the bisection is cached. With cfg.Metrics
// set, each settled point is re-run at its MinBuffer with a child
// registry merged under a "rate=...,len=..." prefix; the searched runs
// never see a registry, so the points are identical with Metrics nil or
// set.
func RunShortFlowBuffer(cfg ShortFlowBufferConfig) ShortFlowBufferTable {
	cfg = cfg.withDefaults()
	type task struct {
		rate    units.BitRate
		flowLen int64
	}
	var tasks []task
	for _, rate := range cfg.Rates {
		for _, flowLen := range cfg.FlowLens {
			tasks = append(tasks, task{rate, flowLen})
		}
	}
	out := make([]ShortFlowBufferPoint, len(tasks))
	runSweep(sweepSpec{
		name: "short-flow-buffer",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(tasks), func(k int) {
		rate, flowLen := tasks[k].rate, tasks[k].flowLen
		moments := model.MomentsForFlowLength(flowLen, 2, cfg.MaxWindow)
		modelBuf := moments.MinBuffer(cfg.Load, cfg.ModelDropProb)

		baseline, _ := shortFlowAFCT(cfg, rate, flowLen, queue.Unlimited(), nil)
		budget := units.Duration(float64(baseline) * cfg.AFCTFactor)

		// Bisect on the buffer size; AFCT decreases with buffer.
		hi := int(math.Max(modelBuf*4, 64))
		lo := 1
		afctAt := func(b int) units.Duration {
			a, _ := shortFlowAFCT(cfg, rate, flowLen, queue.PacketLimit(b), nil)
			return a
		}
		point := ShortFlowBufferPoint{
			Rate: rate, FlowLen: flowLen,
			BaselineAFCT: baseline, ModelBuffer: modelBuf,
		}
		if a := afctAt(lo); a <= budget {
			point.MinBuffer, point.AchievedAFCT = lo, a
			out[k] = point
			return
		}
		aHi := afctAt(hi)
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if a := afctAt(mid); a <= budget {
				hi, aHi = mid, a
			} else {
				lo = mid
			}
		}
		point.MinBuffer, point.AchievedAFCT = hi, aHi
		out[k] = point
	})
	if cfg.Metrics != nil {
		// Telemetry pass: re-run every point at the buffer the search
		// settled on, into a child registry merged under the point's label.
		// Points stay byte-identical because the searched runs above never
		// see a registry.
		for _, p := range out {
			if p.MinBuffer == 0 {
				continue // point never ran (cancelled sweep)
			}
			child := metrics.New()
			shortFlowAFCT(cfg, p.Rate, p.FlowLen, queue.PacketLimit(p.MinBuffer), child)
			cfg.Metrics.Merge(fmt.Sprintf("rate=%s,len=%d", p.Rate, p.FlowLen), child)
		}
	}
	return out
}
