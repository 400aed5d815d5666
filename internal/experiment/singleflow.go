package experiment

import (
	"time"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/queue"
	"bufsim/internal/runcache"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/trace"
	"bufsim/internal/units"
)

// SingleFlowConfig reproduces the paper's Figs. 2–5: one long-lived TCP
// flow through a bottleneck whose buffer is a multiple of the
// bandwidth-delay product.
type SingleFlowConfig struct {
	// Seed feeds the randomized queue discipline when UseRED is set; a
	// plain drop-tail single-flow run is fully deterministic and ignores
	// it.
	Seed int64

	BottleneckRate units.BitRate
	RTT            units.Duration // two-way propagation (2*Tp)
	SegmentSize    units.ByteSize

	// BufferFactor sizes the buffer as BufferFactor x (RTT x C):
	// 1.0 is Fig. 3 (rule of thumb), <1 is Fig. 4 (underbuffered),
	// >1 is Fig. 5 (overbuffered).
	BufferFactor float64

	Warmup, Measure units.Duration
	SampleEvery     units.Duration

	// Variant, DelayedAck and Paced select the sender's congestion-control
	// behaviour (default: plain ACK-clocked Reno, the paper's setup).
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to Random Early Detection sized to
	// the same buffer — the sawtooth under early, randomized drops.
	UseRED bool

	// Metrics, when non-nil, receives the run's telemetry (see
	// LongLivedConfig.Metrics).
	Metrics *metrics.Registry

	// Audit, when non-nil, runs the scenario under the conservation-law
	// checker (see LongLivedConfig.Audit).
	Audit *audit.Auditor

	// Cache, when non-nil, memoizes the result, time series included
	// (see LongLivedConfig.Cache).
	Cache *runcache.Store
}

func (c SingleFlowConfig) withDefaults() SingleFlowConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 10 * units.Mbps
	}
	if c.RTT == 0 {
		c.RTT = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	// A single flow's congestion-avoidance cycle is long (the window
	// climbs one segment per RTT from Wmax/2 back to Wmax), and the
	// initial slow-start overshoot collapses ssthresh far below the BDP,
	// so the first ~minute is transient. Defaults sit well past it.
	if c.Warmup == 0 {
		c.Warmup = 100 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 200 * units.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * units.Millisecond
	}
	return c
}

// SingleFlowResult carries the Fig. 2/3 time series plus summary metrics.
type SingleFlowResult struct {
	BDPPackets    int
	BufferPackets int
	Utilization   float64
	MeanQueue     float64 // packets, time-averaged over the measurement window
	MinQueueSeen  float64 // smallest sampled occupancy in the window
	Cwnd          *trace.Series
	Queue         *trace.Series
}

// RunSingleFlow executes the Fig. 2–5 scenario. With cfg.Cache set the
// result is memoized.
func RunSingleFlow(cfg SingleFlowConfig) SingleFlowResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.Cache, "single-flow", cfg, cfg.Metrics != nil || cfg.Audit != nil, func() SingleFlowResult {
		return runSingleFlow(cfg)
	})
}

// runSingleFlow is the uncached body of RunSingleFlow; cfg has defaults
// applied.
func runSingleFlow(cfg SingleFlowConfig) SingleFlowResult {
	wallStart := time.Now()
	sched := sim.NewScheduler()
	bdp := units.PacketsInFlight(cfg.BottleneckRate, cfg.RTT, cfg.SegmentSize)
	buffer := int(cfg.BufferFactor * float64(bdp))
	if buffer < 1 {
		buffer = 1
	}

	topoCfg := topology.Config{
		Sched:           sched,
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.RTT / 4,
		Buffer:          queue.PacketLimit(buffer),
		Stations:        1,
		RTTMin:          cfg.RTT,
		RTTMax:          cfg.RTT,
		Auditor:         cfg.Audit,
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(buffer, cfg.SegmentSize, cfg.BottleneckRate, sim.NewRNG(cfg.Seed).Fork(), false)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(cfg.Metrics, sched, d)
	f := d.AddFlow(d.Station(0), tcp.Config{
		SegmentSize: cfg.SegmentSize,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	})
	f.Sender.Start()

	cwnd := trace.NewSampler(sched, "cwnd_pkts", cfg.SampleEvery, f.Sender.Cwnd)
	qlen := trace.NewSampler(sched, "queue_pkts", cfg.SampleEvery,
		func() float64 { return float64(d.Bottleneck.Queue().Len()) })

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	busySnap := d.Bottleneck.BusyTime()
	end := warmEnd.Add(cfg.Measure)
	sched.Run(end)

	res := SingleFlowResult{
		BDPPackets:    bdp,
		BufferPackets: buffer,
		Utilization:   d.Bottleneck.Utilization(busySnap, warmEnd),
		Cwnd:          cwnd.Series().Window(cfg.Warmup.Seconds(), end.Sub(units.Epoch).Seconds()),
		Queue:         qlen.Series().Window(cfg.Warmup.Seconds(), end.Sub(units.Epoch).Seconds()),
	}
	res.MinQueueSeen = res.Queue.Min()
	for _, v := range res.Queue.Values {
		res.MeanQueue += v
	}
	if n := res.Queue.Len(); n > 0 {
		res.MeanQueue /= float64(n)
	}
	observeWallTime(cfg.Metrics, wallStart, sched)
	return res
}
