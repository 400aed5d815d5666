package experiment

import (
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// MultiHopConfig tests the paper's single-congestion-point assumption
// (§5.1): a two-hop parking lot where both links are bottlenecks, each
// buffered by the sqrt(n) rule for the flows crossing it. One third of
// the flows cross both links (and therefore see two congestion points —
// the case the paper assumes away); the rest load one hop each.
type MultiHopConfig struct {
	Seed int64

	LinkRate       units.BitRate
	NPerGroup      int // flows crossing both, hop 1 only, hop 2 only
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize

	// BufferFactor scales each link's buffer relative to
	// RTTxC/sqrt(flows crossing that link).
	BufferFactor float64

	Warmup, Measure units.Duration

	Env
}

func (c MultiHopConfig) withDefaults() MultiHopConfig {
	if c.LinkRate == 0 {
		c.LinkRate = 40 * units.Mbps
	}
	if c.NPerGroup == 0 {
		c.NPerGroup = 100
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
		c.Measure = 40 * units.Second
	}
	return c
}

// MultiHopResult summarizes the two-bottleneck run.
type MultiHopResult struct {
	BufferPackets int // per link
	FlowsPerLink  int
	Util          [2]float64
	LossRate      [2]float64
	// CrossingShare is the crossing group's fraction of hop-1 delivered
	// segments; with perfect fairness it is 0.5 (they are half of each
	// link's flows). TCP's known multi-bottleneck bias pushes it lower.
	CrossingShare float64
}

// RunMultiHop executes the two-bottleneck scenario. With cfg.Cache set
// the result is memoized.
func RunMultiHop(cfg MultiHopConfig) MultiHopResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.Cache, "multihop", cfg, cfg.Audit != nil, func() MultiHopResult {
		return runMultiHop(cfg)
	})
}

// runMultiHop is the uncached body of RunMultiHop; cfg has defaults
// applied.
func runMultiHop(cfg MultiHopConfig) MultiHopResult {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)

	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.LinkRate, meanRTT, cfg.SegmentSize)
	perLink := 2 * cfg.NPerGroup // crossing + local flows on each link
	buffer := int(cfg.BufferFactor * float64(SqrtRuleBuffer(float64(bdp), perLink)))
	if buffer < 1 {
		buffer = 1
	}

	p := topology.NewParkingLot(topology.ParkingLotConfig{
		Sched:   sched,
		Rates:   []units.BitRate{cfg.LinkRate, cfg.LinkRate},
		Delays:  []units.Duration{5 * units.Millisecond, 5 * units.Millisecond},
		Buffers: []queue.Limit{queue.PacketLimit(buffer), queue.PacketLimit(buffer)},
		Auditor: cfg.Audit,
	})

	rtt := func() units.Duration {
		return units.Duration(rng.Uniform(float64(cfg.RTTMin), float64(cfg.RTTMax)))
	}
	spec := tcp.Config{SegmentSize: cfg.SegmentSize}
	var crossing []*topology.PathFlow
	for i := 0; i < cfg.NPerGroup; i++ {
		for _, path := range [][2]int{{0, 2}, {0, 1}, {1, 2}} {
			f := p.AddFlow(path[0], path[1], rtt(), spec)
			if path == [2]int{0, 2} {
				crossing = append(crossing, f)
			}
			start := units.Epoch.Add(units.Duration(rng.Uniform(0, float64(cfg.Warmup/2))))
			sched.PostAt(start, f.Sender, tcp.OpStart, nil)
		}
	}

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	var busy [2]units.Duration
	var qs [2]queue.Stats
	for i := range p.Links {
		busy[i] = p.Links[i].BusyTime()
		qs[i] = p.Links[i].Queue().Stats()
	}
	crossSnap := make([]int64, len(crossing))
	for i, f := range crossing {
		crossSnap[i] = f.Sender.Stats().SegmentsSent
	}
	hop1Snap := p.Links[0].DeliveredPackets()

	sched.Run(warmEnd.Add(cfg.Measure))

	res := MultiHopResult{BufferPackets: buffer, FlowsPerLink: perLink}
	for i := range p.Links {
		res.Util[i] = p.Links[i].Utilization(busy[i], warmEnd)
		now := p.Links[i].Queue().Stats()
		offered := (now.EnqueuedPackets - qs[i].EnqueuedPackets) + (now.DroppedPackets - qs[i].DroppedPackets)
		if offered > 0 {
			res.LossRate[i] = float64(now.DroppedPackets-qs[i].DroppedPackets) / float64(offered)
		}
	}
	var crossSent int64
	for i, f := range crossing {
		crossSent += f.Sender.Stats().SegmentsSent - crossSnap[i]
	}
	if hop1 := p.Links[0].DeliveredPackets() - hop1Snap; hop1 > 0 {
		res.CrossingShare = float64(crossSent) / float64(hop1)
	}
	return res
}
