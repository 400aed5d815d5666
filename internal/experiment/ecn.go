package experiment

import (
	"bufsim/internal/units"
)

// ECNConfig drives the ECN ablation: RED that marks (with ECN-capable
// senders) versus RED that drops, at the same sqrt(n)-rule buffer. Marking
// delivers the congestion signal without losing packets, so the same tiny
// buffer should yield equal-or-better utilization with near-zero loss —
// an AQM-era postscript to the paper's drop-tail result.
type ECNConfig struct {
	Seed int64

	N              int
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize
	BufferFactor   float64 // multiple of RTTxC/sqrt(n)

	Warmup, Measure units.Duration

	Env
}

func (c ECNConfig) withDefaults() ECNConfig {
	if c.N == 0 {
		c.N = 200
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 2
	}
	return c
}

// ECNResult compares marking and dropping.
type ECNResult struct {
	BufferPackets int
	Drop          LongLivedResult // RED dropping
	Mark          LongLivedResult // RED marking + ECN senders
}

// RunECN executes the ablation.
func RunECN(cfg ECNConfig) ECNResult {
	cfg = cfg.withDefaults()
	ll := LongLivedConfig{
		Seed:           cfg.Seed,
		N:              cfg.N,
		BottleneckRate: cfg.BottleneckRate,
		RTTMin:         cfg.RTTMin,
		RTTMax:         cfg.RTTMax,
		SegmentSize:    cfg.SegmentSize,
		UseRED:         true,
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

	drop := ll
	mark := ll
	mark.ECN = true
	return ECNResult{
		BufferPackets: buffer,
		Drop:          RunLongLived(drop),
		Mark:          RunLongLived(mark),
	}
}
