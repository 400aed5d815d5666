package experiment

import (
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// VariantConfig drives the congestion-control ablation: does the sqrt(n)
// rule depend on the paper's choice of TCP Reno? The paper's analysis
// only assumes AIMD sawtooths, so Tahoe/NewReno/SACK should all track the
// rule — with SACK expected to help precisely where Reno's multi-loss
// fragility hurts (small n, small buffers).
type VariantConfig struct {
	Seed int64

	N              int
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize
	BufferFactor   float64 // multiple of RTTxC/sqrt(n)

	Variants []tcp.Variant

	Warmup, Measure units.Duration

	Env
}

func (c VariantConfig) withDefaults() VariantConfig {
	if c.N == 0 {
		c.N = 100
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if len(c.Variants) == 0 {
		c.Variants = []tcp.Variant{tcp.Reno, tcp.NewReno, tcp.Sack, tcp.Tahoe}
	}
	return c
}

// VariantPoint is one congestion-control variant's outcome.
type VariantPoint struct {
	Variant     tcp.Variant
	Utilization float64
	LossRate    float64
	Timeouts    int64
	Retransmit  float64
}

// RunVariantAblation measures each variant on the same scenario.
func RunVariantAblation(cfg VariantConfig) VariantTable {
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
	buffer := int(cfg.BufferFactor * float64(SqrtRuleBuffer(bdp, cfg.N)))
	if buffer < 1 {
		buffer = 1
	}
	ll.BufferPackets = buffer

	var out []VariantPoint
	for _, v := range cfg.Variants {
		run := ll
		run.Variant = v
		r := RunLongLived(run)
		out = append(out, VariantPoint{
			Variant:     v,
			Utilization: r.Utilization,
			LossRate:    r.LossRate,
			Timeouts:    r.Timeouts,
			Retransmit:  r.RetransmitFraction,
		})
	}
	return out
}
