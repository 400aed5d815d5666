package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// CCFamilyConfig drives the updated-buffer-sizing-theory comparison
// (Spang, Arslan, McKeown, "Updating the Theory of Buffer Sizing"): how
// much buffer does each congestion-control family actually need as n
// grows? The 2004 rule B = RTT·C/sqrt(n) was derived for loss-based,
// window-driven Reno; the loss-based families are expected to track it
// (CUBIC with a larger constant, since its decrease is gentler), while
// the rate-based BBR's requirement is expected to decouple from n —
// which is exactly where the rule breaks.
//
// For every (variant, n) grid point the driver measures the variant's
// utilization ceiling at a generous buffer (two BDPs), bisects for the
// smallest buffer reaching Target x ceiling, and measures utilization
// at the paper's sqrt-rule buffer. Comparing min-buffer against the
// rule's prediction per family is the figure's payload. The relative
// target makes families with different ceilings comparable: each is
// asked to reach its own attainable throughput, not Reno's.
type CCFamilyConfig struct {
	Seed int64

	// Ns are the long-lived flow counts to sweep.
	Ns []int
	// Variants are the congestion-control families to compare; defaults
	// to every registered variant.
	Variants []tcp.Variant

	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize

	// Target is the fraction of each variant's own large-buffer
	// utilization ceiling the min-buffer search must reach.
	Target float64

	Warmup, Measure units.Duration

	Env
}

func (c CCFamilyConfig) withDefaults() CCFamilyConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{25, 50, 100, 200, 400}
	}
	if len(c.Variants) == 0 {
		c.Variants = tcp.Variants()
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.Target == 0 {
		c.Target = 0.95
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// CCFamilyPoint is one (variant, n) outcome of the buffer-requirement
// comparison.
type CCFamilyPoint struct {
	Variant tcp.Variant
	N       int

	// BDPPackets is MeanRTT x C in packets; SqrtRule is the 2004
	// recommendation BDP/sqrt(n).
	BDPPackets int
	SqrtRule   int

	// Ceiling is the variant's utilization with a two-BDP buffer — its
	// attainable throughput on this scenario — and Target the absolute
	// utilization the min-buffer search had to reach (Target x Ceiling).
	Ceiling float64
	Target  float64

	// MinBuffer is the smallest buffer reaching Target, by bisection;
	// equal to the search bound when unreachable.
	MinBuffer int
	// RuleRatio is MinBuffer / SqrtRule: 1.0 means the 2004 rule sizes
	// this family exactly; above 1 the rule under-provisions it.
	RuleRatio float64
	// BDPFraction is MinBuffer / BDP, the classic rule-of-thumb scale.
	BDPFraction float64

	// UtilAtRule is the measured utilization with exactly the sqrt-rule
	// buffer.
	UtilAtRule float64
}

// ccFamilyPointConfig is the semantic identity of one grid point for
// the run cache: the scenario plus the search parameters.
type ccFamilyPointConfig struct {
	Scenario LongLivedConfig
	Target   float64
	SearchHi int
}

// CCFamilyTable is the cross-family buffer-requirement dataset, in
// (variant, n) grid order.
type CCFamilyTable []CCFamilyPoint

// Table implements Result.
func (t CCFamilyTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Variant\tFlows\tBDP\tSqrtRule\tMinBuffer\tMin/Rule\tMin/BDP\tUtil@Rule\tCeiling")
		for _, p := range t {
			fmt.Fprintf(tw, "%v\t%d\t%d\t%d\t%d\t%.2fx\t%.3f\t%.2f%%\t%.2f%%\n",
				p.Variant, p.N, p.BDPPackets, p.SqrtRule, p.MinBuffer,
				p.RuleRatio, p.BDPFraction, 100*p.UtilAtRule, 100*p.Ceiling)
		}
	})
}

// WriteJSON implements Result.
func (t CCFamilyTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

// RunCCFamily measures the buffer requirement of every configured
// congestion-control family across the configured flow counts. Grid
// points run through the sweep orchestrator (parallel, cached,
// checkpointed); each point is internally sequential (its bisection
// probes depend on each other).
func RunCCFamily(cfg CCFamilyConfig) CCFamilyTable {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize)

	points := make(CCFamilyTable, len(cfg.Variants)*len(cfg.Ns))
	runSweep(sweepSpec{
		name: "ccfamily",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(points), func(i int) {
		v := cfg.Variants[i/len(cfg.Ns)]
		n := cfg.Ns[i%len(cfg.Ns)]
		points[i] = runCCFamilyPoint(cfg, v, n, bdp)
	})
	return points
}

// runCCFamilyPoint measures one (variant, n) grid point: ceiling,
// min-buffer bisection, and utilization at the sqrt-rule buffer.
func runCCFamilyPoint(cfg CCFamilyConfig, v tcp.Variant, n, bdp int) CCFamilyPoint {
	ll := LongLivedConfig{
		Seed:           cfg.Seed,
		N:              n,
		BottleneckRate: cfg.BottleneckRate,
		RTTMin:         cfg.RTTMin,
		RTTMax:         cfg.RTTMax,
		SegmentSize:    cfg.SegmentSize,
		Warmup:         cfg.Warmup,
		Measure:        cfg.Measure,
		Variant:        v,
		Env:            cfg.pointEnv(),
	}
	sqrtRule := SqrtRuleBuffer(float64(bdp), n)
	hi := 2 * bdp
	if hi < 4*sqrtRule {
		hi = 4 * sqrtRule
	}
	if hi < 4 {
		hi = 4
	}
	// The whole point is one cache unit (kind "ccfamily-point") on top
	// of the per-run memoization, so a cached sweep replays instantly
	// instead of re-walking the bisection's probe sequence.
	force := cfg.Metrics != nil || cfg.Audit != nil
	key := ccFamilyPointConfig{Scenario: ll, Target: cfg.Target, SearchHi: hi}
	return memoRun(cfg.Cache, "ccfamily-point", key, force, func() CCFamilyPoint {
		ceiling := MeasuredUtilization(ll, hi)
		target := cfg.Target * ceiling
		minB := MinBufferForUtilization(ll, target, hi)
		return CCFamilyPoint{
			Variant:     v,
			N:           n,
			BDPPackets:  bdp,
			SqrtRule:    sqrtRule,
			Ceiling:     ceiling,
			Target:      target,
			MinBuffer:   minB,
			RuleRatio:   float64(minB) / float64(sqrtRule),
			BDPFraction: float64(minB) / float64(bdp),
			UtilAtRule:  MeasuredUtilization(ll, sqrtRule),
		}
	})
}
