package experiment

import (
	"math"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// WindowDistConfig reproduces Fig. 6: the distribution of the sum of the
// congestion windows of all flows, compared with a normal fit.
type WindowDistConfig struct {
	Seed int64

	N               int
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize

	// BufferFactor sizes the buffer as a multiple of RTTxC/sqrt(n).
	BufferFactor float64

	Warmup, Measure units.Duration
	SampleEvery     units.Duration

	Env
}

func (c WindowDistConfig) withDefaults() WindowDistConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
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
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 60 * units.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * units.Millisecond
	}
	return c
}

// WindowDistResult summarizes the aggregate-window process.
type WindowDistResult struct {
	N             int
	BufferPackets int

	Samples []float64 // aggregate window, sampled
	Mean    float64
	StdDev  float64
	// KS is the Kolmogorov–Smirnov distance between the sample and the
	// fitted normal; small KS is the Fig. 6 claim.
	KS float64
	// CLTSigmaRatio compares the measured sigma against 1/sqrt(n)
	// scaling: sigma * sqrt(n) / mean. Roughly constant across n if the
	// central-limit scaling holds.
	CLTSigmaRatio float64
	// Histogram over the sampled range, for plotting.
	Histogram *stats.Histogram
}

// RunWindowDist executes the Fig. 6 scenario. With cfg.Cache set the
// result is memoized.
func RunWindowDist(cfg WindowDistConfig) WindowDistResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.Cache, "window-dist", cfg, cfg.Audit != nil, func() WindowDistResult {
		return runWindowDist(cfg)
	})
}

// windowSampler records the aggregate congestion window at a fixed
// period through the kernel's typed-event path (one actor, no closure
// per sample).
type windowSampler struct {
	sched   *sim.Scheduler
	d       *topology.Dumbbell
	every   units.Duration
	samples []float64
}

// OnEvent implements sim.Actor.
func (s *windowSampler) OnEvent(int32, any) {
	s.samples = append(s.samples, s.d.AggregateWindow())
	s.sched.PostAfter(s.every, s, 0, nil)
}

// runWindowDist is the uncached body of RunWindowDist; cfg has defaults
// applied.
func runWindowDist(cfg WindowDistConfig) WindowDistResult {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)

	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := float64(units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize))
	buffer := int(math.Max(1, cfg.BufferFactor*bdp/math.Sqrt(float64(cfg.N))))

	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.BottleneckDelay,
		Buffer:          queue.PacketLimit(buffer),
		Stations:        cfg.N,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		Auditor:         cfg.Audit,
	})
	workload.StartLongLived(d, cfg.N, tcp.Config{SegmentSize: cfg.SegmentSize}, rng.Fork(), cfg.Warmup/2)

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)

	sampler := &windowSampler{sched: sched, d: d, every: cfg.SampleEvery}
	sched.PostAfter(sampler.every, sampler, 0, nil)
	sched.Run(warmEnd.Add(cfg.Measure))
	samples := sampler.samples

	mean, sd := fitNormal(samples)
	lo, hi := mean-5*sd, mean+5*sd
	if sd == 0 {
		lo, hi = mean-1, mean+1
	}
	hist := stats.NewHistogram(lo, hi, 60)
	for _, v := range samples {
		hist.Add(v)
	}
	ratio := 0.0
	if mean > 0 {
		ratio = sd * math.Sqrt(float64(cfg.N)) / mean
	}
	return WindowDistResult{
		N:             cfg.N,
		BufferPackets: buffer,
		Samples:       samples,
		Mean:          mean,
		StdDev:        sd,
		KS:            stats.KSNormal(samples, mean, sd),
		CLTSigmaRatio: ratio,
		Histogram:     hist,
	}
}
