package experiment

import (
	"bufsim/internal/model"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// PacingConfig drives the pacing ablation: the technical report argues
// that sender pacing removes the burstiness that forces buffers above the
// sqrt(n) rule when n is small. We compare utilization with and without
// pacing across buffer sizes well below the single-flow rule of thumb.
type PacingConfig struct {
	Seed int64

	N              int
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize
	BufferFactors  []float64 // multiples of RTTxC/sqrt(n)

	Warmup, Measure units.Duration

	Env
}

func (c PacingConfig) withDefaults() PacingConfig {
	if c.N == 0 {
		c.N = 25
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 40 * units.Mbps
	}
	if len(c.BufferFactors) == 0 {
		c.BufferFactors = []float64{0.25, 0.5, 1}
	}
	return c
}

// PacingPoint compares the two senders at one buffer size.
type PacingPoint struct {
	BufferPackets int
	Factor        float64
	UtilUnpaced   float64
	UtilPaced     float64
}

// RunPacingAblation executes the pacing comparison.
func RunPacingAblation(cfg PacingConfig) PacingTable {
	cfg = cfg.withDefaults()
	ll := LongLivedConfig{
		Seed:           cfg.Seed,
		N:              cfg.N,
		BottleneckRate: cfg.BottleneckRate,
		RTTMin:         cfg.RTTMin,
		RTTMax:         cfg.RTTMax,
		SegmentSize:    cfg.SegmentSize,
		Warmup:         cfg.Warmup,
		Measure:        cfg.Measure,
		Env:            cfg.pointEnv(),
	}
	ll = ll.withDefaults()
	meanRTT := (ll.RTTMin + ll.RTTMax) / 2
	bdp := float64(units.PacketsInFlight(ll.BottleneckRate, meanRTT, ll.SegmentSize))

	var out []PacingPoint
	for _, f := range cfg.BufferFactors {
		buffer := int(f * float64(SqrtRuleBuffer(bdp, cfg.N)))
		if buffer < 1 {
			buffer = 1
		}
		unpaced := ll
		unpaced.BufferPackets = buffer
		paced := unpaced
		paced.Paced = true
		out = append(out, PacingPoint{
			BufferPackets: buffer,
			Factor:        f,
			UtilUnpaced:   RunLongLived(unpaced).Utilization,
			UtilPaced:     RunLongLived(paced).Utilization,
		})
	}
	return out
}

// SmoothingConfig drives the §4 access-link ablation. The paper: "for our
// model and simulation we assumed access links that are faster than the
// bottleneck link. There is evidence that highly aggregated traffic from
// slow access links in some cases can lead to bursts being smoothed out
// completely. In this case individual packet arrivals are close to
// Poisson, resulting in even smaller buffers" (computable with M/D/1).
//
// We measure short-flow queue tails with fast access links (slow-start
// bursts arrive intact -> M/G/1 with bursty X) versus slow access links
// (bursts smeared -> toward M/D/1).
type SmoothingConfig struct {
	Seed int64

	BottleneckRate units.BitRate
	Load           float64
	FlowLen        int64
	MaxWindow      int
	SegmentSize    units.ByteSize
	Stations       int

	// AccessRatios are access-link rates as multiples of the bottleneck:
	// 10x approximates the paper's "infinite speed" worst case; ratios
	// well below 1 model the paper's "highly aggregated traffic from
	// slow access links", which smears slow-start bursts toward
	// per-packet Poisson arrivals.
	AccessRatios []float64

	// TailAt is the queue depth at which P(Q >= b) is measured.
	TailAt int

	Warmup, Measure units.Duration

	Env
}

func (c SmoothingConfig) withDefaults() SmoothingConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 40 * units.Mbps
	}
	if c.Load == 0 {
		c.Load = 0.8
	}
	if c.FlowLen == 0 {
		c.FlowLen = 30
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if len(c.AccessRatios) == 0 {
		c.AccessRatios = []float64{10, 1, 0.25}
	}
	if c.TailAt == 0 {
		c.TailAt = 20
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 60 * units.Second
	}
	return c
}

// SmoothingPoint is one access-ratio measurement.
type SmoothingPoint struct {
	AccessRatio float64
	// TailProb is the measured P(Q >= TailAt) at the bottleneck,
	// sampled at packet enqueue times.
	TailProb float64
	// MeanQueue is the time-averaged occupancy.
	MeanQueue float64
	// ModelMG1 and ModelMD1 bracket the measurement: bursty slow-start
	// arrivals vs fully smoothed Poisson packets.
	ModelMG1 float64
	ModelMD1 float64
}

// RunSmoothing executes the access-link smoothing ablation. With
// cfg.Cache set, each access-ratio point is memoized under a key with
// AccessRatios narrowed to that single ratio, so points are shared
// between runs that sweep different ratio lists.
func RunSmoothing(cfg SmoothingConfig) SmoothingTable {
	cfg = cfg.withDefaults()
	moments := model.MomentsForFlowLength(cfg.FlowLen, 2, cfg.MaxWindow)

	out := SmoothingTable{TailAt: cfg.TailAt}
	for _, ratio := range cfg.AccessRatios {
		cfgKey := cfg
		cfgKey.AccessRatios = []float64{ratio}
		p := memoRun(cfg.Cache, "smoothing", cfgKey, cfg.Audit != nil, func() SmoothingPoint {
			return runSmoothingPoint(cfg, ratio, moments)
		})
		out.Points = append(out.Points, p)
	}
	return out
}

// runSmoothingPoint measures one access ratio; cfg has defaults applied.
func runSmoothingPoint(cfg SmoothingConfig, ratio float64, moments model.BurstMoments) SmoothingPoint {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.Unlimited(),
		AccessRate:      units.BitRate(ratio * float64(cfg.BottleneckRate)),
		Stations:        cfg.Stations,
		RTTMin:          60 * units.Millisecond,
		RTTMax:          140 * units.Millisecond,
		Auditor:         cfg.Audit,
	})
	gen := workload.NewShortFlows(workload.ShortFlowConfig{
		Dumbbell: d,
		RNG:      rng.Fork(),
		Load:     cfg.Load,
		Sizes:    workload.FixedSize(cfg.FlowLen),
		TCP:      tcp.Config{SegmentSize: cfg.SegmentSize, MaxWindow: cfg.MaxWindow},
	})
	gen.Start()

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	// Sample the queue during the window (arrival sampling, matching the
	// model's P(Q >= b) seen by arrivals).
	probe := &queueProbe{sched: sched, d: d, period: units.Millisecond, tailAt: cfg.TailAt}
	sched.PostAfter(probe.period, probe, 0, nil)
	sched.Run(warmEnd.Add(cfg.Measure))
	gen.Stop()

	p := SmoothingPoint{
		AccessRatio: ratio,
		ModelMG1:    moments.QueueTail(cfg.Load, float64(cfg.TailAt)),
		ModelMD1:    model.MD1QueueTail(cfg.Load, float64(cfg.TailAt)),
	}
	if probe.samples > 0 {
		p.TailProb = float64(probe.exceed) / float64(probe.samples)
		p.MeanQueue = probe.occupancy / float64(probe.samples)
	}
	return p
}

// queueProbe periodically samples the bottleneck queue through the
// kernel's typed-event path: one actor for the whole run instead of one
// rescheduled closure per sample.
type queueProbe struct {
	sched  *sim.Scheduler
	d      *topology.Dumbbell
	period units.Duration
	tailAt int

	samples   int64
	exceed    int64
	occupancy float64
}

// OnEvent implements sim.Actor.
func (p *queueProbe) OnEvent(int32, any) {
	q := p.d.Bottleneck.Queue().Len()
	p.samples++
	p.occupancy += float64(q)
	if q >= p.tailAt {
		p.exceed++
	}
	p.sched.PostAfter(p.period, p, 0, nil)
}
