package experiment

import (
	"math"

	"bufsim/internal/units"
)

// RTTSpreadConfig probes §3's desynchronization mechanism directly:
// "small variations in RTT or processing time are sufficient to prevent
// synchronization". We hold everything fixed (n flows, 1x sqrt-rule
// buffer) and sweep only the width of the RTT distribution, from
// perfectly homogeneous (a synchronization greenhouse) to the paper's
// heterogeneous regime, measuring utilization and the aggregate-window
// synchronization index.
type RTTSpreadConfig struct {
	Seed int64

	N              int
	BottleneckRate units.BitRate
	MeanRTT        units.Duration
	Spreads        []units.Duration // full widths of the RTT distribution
	SegmentSize    units.ByteSize
	BufferFactor   float64

	Warmup, Measure units.Duration

	Env
}

func (c RTTSpreadConfig) withDefaults() RTTSpreadConfig {
	if c.N == 0 {
		c.N = 200
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	if c.MeanRTT == 0 {
		c.MeanRTT = 100 * units.Millisecond
	}
	if len(c.Spreads) == 0 {
		c.Spreads = []units.Duration{
			0, 5 * units.Millisecond, 20 * units.Millisecond, 80 * units.Millisecond,
		}
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	return c
}

// RTTSpreadPoint is one spread's outcome.
type RTTSpreadPoint struct {
	Spread      units.Duration
	Utilization float64
	// SyncIndex is the aggregate-window CoV over the independent-flows
	// CLT prediction (1 = desynchronized; see SyncPoint).
	SyncIndex float64
}

// RunRTTSpread executes the ablation. Points run in parallel.
func RunRTTSpread(cfg RTTSpreadConfig) RTTSpreadTable {
	cfg = cfg.withDefaults()
	bdp := float64(units.PacketsInFlight(cfg.BottleneckRate, cfg.MeanRTT, cfg.SegmentSize))
	buffer := int(math.Max(1, cfg.BufferFactor*float64(SqrtRuleBuffer(bdp, cfg.N))))

	out := make([]RTTSpreadPoint, len(cfg.Spreads))
	runSweep(sweepSpec{
		name: "rtt-spread",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(cfg.Spreads), func(i int) {
		spread := cfg.Spreads[i]
		// RunWindowDist gives both the utilization inputs and the
		// aggregate-window moments; rebuild its scenario with this
		// spread. A zero spread means identical RTTs.
		wd := RunWindowDist(WindowDistConfig{
			Seed:            cfg.Seed + int64(i),
			N:               cfg.N,
			BottleneckRate:  cfg.BottleneckRate,
			BottleneckDelay: 10 * units.Millisecond,
			RTTMin:          cfg.MeanRTT - spread/2,
			RTTMax:          cfg.MeanRTT + spread/2,
			SegmentSize:     cfg.SegmentSize,
			BufferFactor:    cfg.BufferFactor,
			Warmup:          cfg.Warmup,
			Measure:         cfg.Measure,
			Env:             cfg.pointEnv(),
		})
		cov := 0.0
		if wd.Mean > 0 {
			cov = wd.StdDev / wd.Mean
		}
		ll := RunLongLived(LongLivedConfig{
			Seed:           cfg.Seed + int64(i),
			N:              cfg.N,
			BottleneckRate: cfg.BottleneckRate,
			RTTMin:         cfg.MeanRTT - spread/2,
			RTTMax:         cfg.MeanRTT + spread/2,
			SegmentSize:    cfg.SegmentSize,
			BufferPackets:  buffer,
			Warmup:         cfg.Warmup,
			Measure:        cfg.Measure,
			Env:            cfg.pointEnv(),
		})
		out[i] = RTTSpreadPoint{
			Spread:      spread,
			Utilization: ll.Utilization,
			SyncIndex:   cov / (sawtoothCoV / math.Sqrt(float64(cfg.N))),
		}
	})
	return out
}
