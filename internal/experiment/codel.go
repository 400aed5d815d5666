package experiment

import (
	"math"

	"bufsim/internal/units"
)

// CoDelConfig drives the CoDel extension: the 2012 answer to the
// buffer-sizing question is to manage *delay* instead of capacity. We
// compare three designs on one scenario:
//
//   - drop-tail sized by the paper's sqrt(n) rule,
//   - drop-tail at the full rule of thumb (the overbuffered status quo),
//   - CoDel with the rule-of-thumb's physical capacity but a 5 ms sojourn
//     target.
//
// If the paper's argument holds, the first and third should both deliver
// high utilization at low delay, while the second pays the delay cost.
type CoDelConfig struct {
	Seed int64

	N              int
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize

	Warmup, Measure units.Duration

	Env
}

func (c CoDelConfig) withDefaults() CoDelConfig {
	if c.N == 0 {
		c.N = 200
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	return c
}

// CoDelRow is one design's outcome.
type CoDelRow struct {
	Label         string
	BufferPackets int
	Utilization   float64
	QueueDelayP99 units.Duration
	LossRate      float64
}

// RunCoDel executes the comparison. Rows run in parallel.
func RunCoDel(cfg CoDelConfig) CoDelTable {
	cfg = cfg.withDefaults()
	base := LongLivedConfig{
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
	base = base.withDefaults()
	meanRTT := (base.RTTMin + base.RTTMax) / 2
	bdp := units.PacketsInFlight(base.BottleneckRate, meanRTT, base.SegmentSize)
	sqrtRule := SqrtRuleBuffer(float64(bdp), cfg.N)

	type design struct {
		label  string
		buffer int
		codel  bool
	}
	designs := []design{
		{"droptail sqrt(n)", sqrtRule, false},
		{"droptail RTTxC", int(math.Max(1, float64(bdp))), false},
		{"codel (RTTxC capacity)", int(math.Max(1, float64(bdp))), true},
	}
	rows := make([]CoDelRow, len(designs))
	runSweep(sweepSpec{
		name: "codel",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(designs), func(i int) {
		run := base
		run.BufferPackets = designs[i].buffer
		run.UseCoDel = designs[i].codel
		r := RunLongLived(run)
		rows[i] = CoDelRow{
			Label:         designs[i].label,
			BufferPackets: designs[i].buffer,
			Utilization:   r.Utilization,
			QueueDelayP99: r.QueueDelayP99,
			LossRate:      r.LossRate,
		}
	})
	return rows
}
