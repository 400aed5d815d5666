package experiment

import (
	"math"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// HarpoonConfig recreates the paper's §5.2 lab methodology: traffic from a
// Harpoon-style closed-loop session generator (heavy-tailed files, think
// times) rather than permanently-backlogged senders. The experiment runs
// two phases: a calibration pass with ample buffers measures the
// equilibrium number of concurrent flows n̂, then the buffer is set to
// each factor × RTT×C/√n̂ and utilization measured — the Fig. 10 protocol
// under realistic load generation.
type HarpoonConfig struct {
	Seed int64

	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize

	Sessions  int
	Sizes     workload.SizeDist
	MeanThink units.Duration

	Factors []float64

	Warmup, Measure units.Duration

	Env
}

func (c HarpoonConfig) withDefaults() HarpoonConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
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
	// The session population must offer more demand than the link
	// carries, or the experiment measures demand rather than buffering:
	// each session moves a ~117 kB mean file per (transfer + 2 s think)
	// cycle, so ~2000 sessions oversubscribe an OC3 comfortably.
	if c.Sessions == 0 {
		c.Sessions = 2000
	}
	if c.Sizes == nil {
		c.Sizes = workload.ParetoSize{Shape: 1.2, Min: 10, Max: 20000}
	}
	if c.MeanThink == 0 {
		c.MeanThink = 2 * units.Second
	}
	if len(c.Factors) == 0 {
		c.Factors = []float64{0.5, 1, 2, 3}
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// HarpoonRow is one buffer point.
type HarpoonRow struct {
	Factor      float64
	Buffer      int
	Utilization float64
	MeanActive  float64
	Transfers   int64
}

// HarpoonResult is the full dataset.
type HarpoonResult struct {
	// CalibratedN is the equilibrium concurrent-flow count measured with
	// ample buffers; the rows' buffers are factors of RTTxC/sqrt(this).
	CalibratedN int
	SqrtRule    int
	Rows        []HarpoonRow
}

// harpoonRun is the cacheable outcome of one session-workload run.
type harpoonRun struct {
	Util       float64
	MeanActive float64
	Transfers  int64
}

// runHarpoonOnce runs the session workload against one packet-buffer
// limit. With cfg.Cache set the run is memoized under a key of the config
// (Factors cleared — they only pick which buffers run) plus the buffer.
func runHarpoonOnce(cfg HarpoonConfig, buffer int) harpoonRun {
	cfgKey := cfg
	cfgKey.Factors = nil
	key := struct {
		Base   HarpoonConfig
		Buffer int
	}{cfgKey, buffer}
	return memoRun(cfg.Cache, "harpoon-run", key, cfg.Audit != nil, func() harpoonRun {
		return runHarpoonUncached(cfg, queue.PacketLimit(buffer))
	})
}

// runHarpoonUncached is the uncached body of runHarpoonOnce.
func runHarpoonUncached(cfg HarpoonConfig, limit queue.Limit) harpoonRun {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	stations := cfg.Sessions
	if stations > 200 {
		stations = 200 // sessions share stations round-robin
	}
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          limit,
		Stations:        stations,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		Auditor:         cfg.Audit,
	})
	g := workload.NewSessions(workload.SessionConfig{
		Dumbbell:  d,
		RNG:       rng.Fork(),
		Sessions:  cfg.Sessions,
		Sizes:     cfg.Sizes,
		MeanThink: cfg.MeanThink,
		TCP:       tcp.Config{SegmentSize: cfg.SegmentSize, MaxWindow: 64},
	})
	g.Start()

	active := trace.NewSampler(sched, "active", 100*units.Millisecond,
		func() float64 { return float64(g.Active()) })

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	busy := d.Bottleneck.BusyTime()
	t0 := g.Transfers
	end := warmEnd.Add(cfg.Measure)
	sched.Run(end)

	series := active.Series().Window(cfg.Warmup.Seconds(), end.Sub(units.Epoch).Seconds())
	var meanActive float64
	for _, v := range series.Values {
		meanActive += v
	}
	if series.Len() > 0 {
		meanActive /= float64(series.Len())
	}
	return harpoonRun{
		Util:       d.Bottleneck.Utilization(busy, warmEnd),
		MeanActive: meanActive,
		Transfers:  g.Transfers - t0,
	}
}

// RunHarpoon executes the two-phase experiment. Each phase's run is
// cached under its buffer limit, so calibration and per-factor points are
// shared across runs that sweep different factor lists.
func RunHarpoon(cfg HarpoonConfig) HarpoonResult {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := float64(units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize))

	// Phase 1: calibrate the concurrent-flow equilibrium with an ample
	// buffer (1x BDP, the rule-of-thumb).
	calib := runHarpoonOnce(cfg, int(bdp))
	n := int(math.Max(1, math.Round(calib.MeanActive)))

	res := HarpoonResult{
		CalibratedN: n,
		SqrtRule:    SqrtRuleBuffer(bdp, n),
	}
	for _, f := range cfg.Factors {
		buffer := int(math.Max(1, f*float64(res.SqrtRule)))
		run := runHarpoonOnce(cfg, buffer)
		res.Rows = append(res.Rows, HarpoonRow{
			Factor:      f,
			Buffer:      buffer,
			Utilization: run.Util,
			MeanActive:  run.MeanActive,
			Transfers:   run.Transfers,
		})
	}
	return res
}
