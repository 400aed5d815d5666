// Package bufsim is a discrete-event TCP network simulator and analytical
// toolkit reproducing "Sizing Router Buffers" (Appenzeller, Keslassy,
// McKeown — SIGCOMM 2004).
//
// The paper's result: a bottleneck link of capacity C carrying n
// desynchronized long-lived TCP flows needs only
//
//	B = RTT x C / sqrt(n)
//
// of buffering — not the classical rule-of-thumb B = RTT x C — to stay at
// near-full utilization; and short, slow-start-only flows need a small
// buffer that depends only on offered load and burst sizes, independent of
// the line rate.
//
// Three entry points:
//
//   - Sizing rules and analytic models on a Link description:
//     Link{...}.RuleOfThumb(), Link{...}.SqrtRule(n),
//     Link{...}.PredictUtilization(n, buffer),
//     Link{...}.ShortFlowBuffer(load, pDrop, flowLen, maxWindow).
//
//   - Packet-level simulation: Simulate (many long-lived flows, with
//     pluggable congestion control — Reno/NewReno/SACK/Tahoe/CUBIC/BBR —
//     plus pacing, RED and delayed-ACK switches),
//     SimulateSingleFlow (the classic sawtooth, with time series),
//     SimulateShortFlows (Poisson short flows, flow-completion times),
//     SimulateMix (long + short flows competing, the Fig. 9 trade),
//     SimulateTrace (replay a recorded flow trace), and
//     SimulateProfile (any Workload — stationary Poisson, sessions,
//     trace replay, or a declarative time-varying Profile whose arrival
//     rate and flow population follow piecewise-linear curves).
//
//   - Full paper reproduction: the internal/experiment package drives
//     every figure and table; cmd/paperexp exposes them on the command
//     line and bench_test.go regenerates them as Go benchmarks.
//
// Every Simulate* entry point accepts functional Options that override the
// corresponding config fields, and every result implements the Result
// interface (Table, WriteJSON). The options matrix:
//
//	option                  Simulate  SimulateReplicated  SingleFlow  ShortFlows  Mix  Trace  Profile
//	WithCongestionControl      yes           yes             yes         yes      yes   yes     yes
//	WithPacing                 yes           yes             yes         yes      yes   yes     yes
//	WithDelayedACK             yes           yes             yes         yes      yes   yes     yes
//	WithRED                    yes           yes             yes         yes      yes   yes     yes
//	WithMetrics                yes           yes             yes         yes      yes   yes     yes
//	WithAudit                  yes           yes             yes         yes      yes   yes     yes
//	WithCache                  yes           yes             yes         yes      yes   yes     yes
//	WithParallelism             -            yes              -           -        -     -       -
//	WithWorkload                -             -               -           -        -     -      yes
//
// WithRED switches the scenario's bottleneck queue from drop-tail to
// Random Early Detection sized to the same buffer; scenarios whose buffer
// is unlimited (BufferPackets 0 in ShortFlows/Trace) must set a positive
// buffer to use it. WithParallelism only affects entry points that fan
// out over multiple independent runs. WithMetrics attaches a telemetry
// Registry; telemetry only observes — the same seed produces identical
// packets with or without it. WithAudit runs the scenario under the
// conservation-law checker (see Auditor); auditing likewise only
// observes. WithCache memoizes results in a content-addressed on-disk
// store keyed by the full configuration: re-running an identical
// scenario returns the stored result instead of simulating (see Cache).
package bufsim

import (
	"fmt"

	"bufsim/internal/experiment"
	"bufsim/internal/model"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Variant selects the TCP congestion-control flavour for simulations.
type Variant = tcp.Variant

// Congestion-control variants. Reno, Tahoe, NewReno and SACK are the
// classic loss-based window algorithms the paper studied; Cubic and BBR
// are the modern families the updated buffer-sizing theory compares
// against the sqrt rule.
const (
	Reno    = tcp.Reno
	Tahoe   = tcp.Tahoe
	NewReno = tcp.NewReno
	Sack    = tcp.Sack
	Cubic   = tcp.Cubic
	BBR     = tcp.BBR
)

// ParseVariant parses a congestion-control name — "reno", "tahoe",
// "newreno", "sack", "cubic" or "bbr", case-insensitive, with common
// aliases like "new-reno" and "bbrv1" — into a Variant. The empty
// string parses as Reno, the zero value, so optional config fields
// round-trip. Variant also implements
// encoding.TextMarshaler/TextUnmarshaler, so JSON configs can carry the
// name directly.
func ParseVariant(s string) (Variant, error) { return tcp.ParseVariant(s) }

// VariantNames lists the canonical names of every registered
// congestion-control variant, in declaration order.
func VariantNames() []string { return tcp.VariantNames() }

// Re-exported quantity types, so callers need no internal imports.
type (
	// Duration is simulated time in nanoseconds.
	Duration = units.Duration
	// Time is an absolute simulated instant in nanoseconds.
	Time = units.Time
	// BitRate is bits per second.
	BitRate = units.BitRate
	// ByteSize is a size in bytes.
	ByteSize = units.ByteSize
)

// Re-exported unit constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
	OC3  = units.OC3
	OC12 = units.OC12
	OC48 = units.OC48

	Byte     = units.Byte
	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte

	// DefaultSegment is the packet size assumed when a Link or config
	// leaves SegmentSize zero.
	DefaultSegment = units.DefaultSegment
)

// ParseDuration parses "250ms", "2.5s", "80us", "10ns".
func ParseDuration(s string) (Duration, error) { return units.ParseDuration(s) }

// ParseBitRate parses "155Mbps", "2.5Gbps", "56Kbps".
func ParseBitRate(s string) (BitRate, error) { return units.ParseBitRate(s) }

// Link describes a bottleneck link for buffer sizing. RTT is the mean
// two-way propagation delay of the flows crossing it (the paper's
// RTT-bar), SegmentSize the packet size buffers are counted in.
type Link struct {
	Rate        BitRate
	RTT         Duration
	SegmentSize ByteSize // defaults to 1000 bytes
}

func (l Link) segment() ByteSize {
	if l.SegmentSize == 0 {
		return DefaultSegment
	}
	return l.SegmentSize
}

// BDP returns the link's bandwidth-delay product in packets.
func (l Link) BDP() int {
	return units.PacketsInFlight(l.Rate, l.RTT, l.segment())
}

// RuleOfThumb returns the classical B = RTT x C buffer in packets.
func (l Link) RuleOfThumb() int {
	return model.RuleOfThumbPackets(l.RTT, l.Rate, l.segment())
}

// SqrtRule returns the paper's B = RTT x C / sqrt(n) buffer in packets for
// n concurrent long-lived flows.
func (l Link) SqrtRule(n int) int {
	return model.SqrtRulePackets(l.RTT, l.Rate, l.segment(), n)
}

// PredictUtilization returns the Gaussian-model utilization estimate for a
// buffer of bufferPkts packets shared by n long-lived flows.
func (l Link) PredictUtilization(n, bufferPkts int) float64 {
	g := model.LongFlowGaussian{N: n, BDP: float64(l.BDP())}
	return g.Utilization(float64(bufferPkts))
}

// ShortFlowBuffer returns the §4 M/G/1 bound: the buffer (packets) that
// keeps short-flow drop probability at or below pDrop when flows of
// flowLen segments (slow start, window capped at maxWindow) offer the
// given load. Note the result does not depend on the link at all — that
// is the paper's point — so this is a plain function dressed as a method
// for discoverability.
func (Link) ShortFlowBuffer(load, pDrop float64, flowLen int64, maxWindow int) float64 {
	m := model.MomentsForFlowLength(flowLen, 2, maxWindow)
	return m.MinBuffer(load, pDrop)
}

// ShortFlowBufferForSizes is ShortFlowBuffer for an empirical flow-size
// sample (e.g. the sizes from a recorded trace) instead of a single
// length: burst moments are pooled across the sample, so heavy-tailed
// mixes — whose large flows emit many max-window bursts — get the larger
// buffer they actually need.
func (Link) ShortFlowBufferForSizes(load, pDrop float64, sizes []int64, maxWindow int) float64 {
	dist := make(map[int64]float64, len(sizes))
	w := 1 / float64(len(sizes))
	for _, s := range sizes {
		dist[s] += w
	}
	m := model.MomentsForDistribution(dist, 2, maxWindow)
	return m.MinBuffer(load, pDrop)
}

// Simulation is the configuration for Simulate: n long-lived TCP Reno
// flows sharing a drop-tail bottleneck.
type Simulation struct {
	Seed int64

	Link          Link
	Flows         int
	BufferPackets int

	// RTTSpread widens the per-flow RTTs to [RTT-RTTSpread/2,
	// RTT+RTTSpread/2]; heterogeneous RTTs are what desynchronize flows.
	RTTSpread Duration

	// Warmup and Measure default to 20 s and 40 s.
	Warmup, Measure Duration

	// RED switches the bottleneck to Random Early Detection.
	RED bool
	// Variant selects the congestion-control flavour (default Reno, the
	// paper's choice).
	Variant Variant
	// Paced spreads each sender's transmissions across the RTT instead
	// of ACK-clocked bursts.
	Paced bool
	// DelayedAck acknowledges every second segment, as modern receivers
	// do.
	DelayedAck bool
}

// SimulationResult summarizes a Simulate run. It implements Result.
type SimulationResult struct {
	Utilization        float64
	LossRate           float64
	MeanQueuePackets   float64
	RetransmitFraction float64
	Timeouts           int64
	// QueueDelayMean / QueueDelayP99 are per-packet bottleneck queueing
	// delays: the latency the buffer costs.
	QueueDelayMean Duration
	QueueDelayP99  Duration
	// Fairness is Jain's index over per-flow throughputs.
	Fairness float64
}

// Validate reports configuration errors before a run starts. Today the
// one hard constraint is the RTT spread: per-flow RTTs are drawn from
// [RTT-RTTSpread/2, RTT+RTTSpread/2], so a spread wider than twice the
// mean RTT would make the minimum negative. Simulate panics with the same
// message if handed an invalid config; call Validate first to get an
// error instead.
func (s Simulation) Validate() error {
	return validateSpread(s.Link.RTT, s.RTTSpread)
}

// validateSpread rejects RTT spreads that would push the low end of the
// per-flow RTT range to or below zero.
func validateSpread(rtt Duration, spread Duration) error {
	if spread < 0 {
		return fmt.Errorf("bufsim: RTTSpread %v is negative", spread)
	}
	if spread >= 2*rtt {
		return fmt.Errorf("bufsim: RTTSpread %v must be less than twice Link.RTT %v: the minimum per-flow RTT (RTT - RTTSpread/2 = %v) would not be positive", spread, rtt, rtt-spread/2)
	}
	return nil
}

// mustValidateSpread is the panic form used by the Simulate* entry points
// (their signatures predate Validate and return no error).
func mustValidateSpread(rtt Duration, spread Duration) {
	if err := validateSpread(rtt, spread); err != nil {
		panic(err.Error())
	}
}

// longLived lowers the public config plus applied options into the
// internal experiment config shared by Simulate and SimulateReplicated.
func (s Simulation) longLived(o options) experiment.LongLivedConfig {
	o.overrideSwitches(&s.Variant, &s.Paced, &s.DelayedAck, &s.RED)
	mustValidateSpread(s.Link.RTT, s.RTTSpread)
	return experiment.LongLivedConfig{
		Seed:           s.Seed,
		N:              s.Flows,
		BottleneckRate: s.Link.Rate,
		RTTMin:         s.Link.RTT - s.RTTSpread/2,
		RTTMax:         s.Link.RTT + s.RTTSpread/2,
		SegmentSize:    s.Link.segment(),
		BufferPackets:  s.BufferPackets,
		UseRED:         s.RED,
		Variant:        s.Variant,
		Paced:          s.Paced,
		DelayedAck:     s.DelayedAck,
		Warmup:         s.Warmup,
		Measure:        s.Measure,
		Env:            o.env,
	}
}

// Simulate runs the long-lived-flow scenario and reports utilization. It
// is the programmatic version of "would this buffer keep my link busy?".
func Simulate(cfg Simulation, opts ...Option) SimulationResult {
	o := applyOptions(opts)
	r := experiment.RunLongLived(cfg.longLived(o))
	return SimulationResult{
		Utilization:        r.Utilization,
		LossRate:           r.LossRate,
		MeanQueuePackets:   r.MeanQueue,
		RetransmitFraction: r.RetransmitFraction,
		Timeouts:           r.Timeouts,
		QueueDelayMean:     r.QueueDelayMean,
		QueueDelayP99:      r.QueueDelayP99,
		Fairness:           r.Fairness,
	}
}

// ReplicatedResult aggregates a Simulate scenario across independent
// seeds: utilization statistics with the spread a single run cannot show.
type ReplicatedResult struct {
	Replicas        int
	MeanUtilization float64
	StdDev          float64
	Min, Max        float64
}

// SimulateReplicated runs the Simulate scenario under replicas different
// seeds (cfg.Seed, cfg.Seed+1, ...) and reports utilization statistics —
// the error bars the single-run entry point omits. Replicas run
// concurrently; WithParallelism bounds the workers (default: the
// machine's parallelism). Results are bit-identical at any worker count.
func SimulateReplicated(cfg Simulation, replicas int, opts ...Option) ReplicatedResult {
	r := experiment.RunLongLivedReplicated(cfg.longLived(applyOptions(opts)), replicas)
	return ReplicatedResult{
		Replicas:        r.Replicas,
		MeanUtilization: r.MeanUtilization,
		StdDev:          r.StdDev,
		Min:             r.Min,
		Max:             r.Max,
	}
}

// SingleFlowResult is the outcome of SimulateSingleFlow: summary metrics
// plus the cwnd and queue time series of Figs. 2-5 (times in seconds).
type SingleFlowResult struct {
	BDPPackets    int
	BufferPackets int
	Utilization   float64
	MeanQueue     float64
	MinQueueSeen  float64
	CwndTimes     []float64
	CwndValues    []float64
	QueueTimes    []float64
	QueueValues   []float64
}

// SimulateSingleFlow runs one long-lived flow with the buffer set to
// bufferFactor x (RTT x C): 1.0 reproduces Fig. 3, less Fig. 4, more
// Fig. 5.
func SimulateSingleFlow(link Link, bufferFactor float64, seed int64, opts ...Option) SingleFlowResult {
	o := applyOptions(opts)
	run := experiment.SingleFlowConfig{
		Seed:           seed,
		BottleneckRate: link.Rate,
		RTT:            link.RTT,
		SegmentSize:    link.segment(),
		BufferFactor:   bufferFactor,
		Env:            o.env,
	}
	o.overrideSwitches(&run.Variant, &run.Paced, &run.DelayedAck, &run.UseRED)
	r := experiment.RunSingleFlow(run)
	return SingleFlowResult{
		BDPPackets:    r.BDPPackets,
		BufferPackets: r.BufferPackets,
		Utilization:   r.Utilization,
		MeanQueue:     r.MeanQueue,
		MinQueueSeen:  r.MinQueueSeen,
		CwndTimes:     r.Cwnd.Times,
		CwndValues:    r.Cwnd.Values,
		QueueTimes:    r.Queue.Times,
		QueueValues:   r.Queue.Values,
	}
}

// ShortFlowSimulation configures SimulateShortFlows.
type ShortFlowSimulation struct {
	Seed int64

	Link          Link
	BufferPackets int // 0 means unlimited (the paper's baseline)
	Load          float64
	FlowLength    int64 // segments per flow
	MaxWindow     int   // receiver window cap (default 43)

	// RED switches the bottleneck to Random Early Detection sized to
	// BufferPackets (which must then be positive).
	RED bool

	Warmup, Measure Duration
}

// ShortFlowResult summarizes SimulateShortFlows.
type ShortFlowResult struct {
	AFCT      Duration
	Completed int
	Censored  int
}

// SimulateShortFlows runs Poisson arrivals of fixed-size slow-start flows
// and reports the average flow completion time — the §4/§5.1.2 metric.
func SimulateShortFlows(cfg ShortFlowSimulation, opts ...Option) ShortFlowResult {
	o := applyOptions(opts)
	run := experiment.ShortFlowRunConfig{
		Seed:          cfg.Seed,
		Rate:          cfg.Link.Rate,
		MeanRTT:       cfg.Link.RTT,
		SegmentSize:   cfg.Link.segment(),
		BufferPackets: cfg.BufferPackets,
		Load:          cfg.Load,
		FlowLength:    cfg.FlowLength,
		MaxWindow:     cfg.MaxWindow,
		UseRED:        cfg.RED,
		Warmup:        cfg.Warmup,
		Measure:       cfg.Measure,
		Env:           o.env,
	}
	o.overrideSwitches(&run.Variant, &run.Paced, &run.DelayedAck, &run.UseRED)
	afct, completed, censored := experiment.ShortFlowAFCT(run)
	return ShortFlowResult{AFCT: afct, Completed: completed, Censored: censored}
}

// MixSimulation configures SimulateMix: long-lived flows competing with
// Poisson short flows over a single bottleneck — the paper's §5.1.3 mixed
// workload, at one explicit buffer size.
type MixSimulation struct {
	Seed int64

	Link          Link
	LongFlows     int
	ShortLoad     float64           // bottleneck load offered by short flows
	ShortSizes    workload.SizeDist // nil: geometric with mean 14 segments
	MaxWindow     int               // short flows' receiver cap (default 43)
	BufferPackets int

	// RED switches the bottleneck to Random Early Detection sized to
	// BufferPackets.
	RED bool

	RTTSpread       Duration
	Warmup, Measure Duration
}

// MixResult summarizes SimulateMix.
type MixResult struct {
	AFCT            Duration // short flows' average completion time
	ShortsCompleted int
	Utilization     float64
	MeanQueue       float64
}

// Validate reports configuration errors before a run starts; see
// Simulation.Validate.
func (s MixSimulation) Validate() error {
	return validateSpread(s.Link.RTT, s.RTTSpread)
}

// SimulateMix runs the mixed long/short workload and reports the short
// flows' completion time alongside link utilization — the trade Fig. 9
// explores: smaller buffers keep utilization while completing short flows
// faster.
func SimulateMix(cfg MixSimulation, opts ...Option) MixResult {
	o := applyOptions(opts)
	mustValidateSpread(cfg.Link.RTT, cfg.RTTSpread)
	sizes := cfg.ShortSizes
	if sizes == nil {
		sizes = workload.GeometricSize(14)
	}
	run := experiment.MixedConfig{
		Seed:           cfg.Seed,
		NLong:          cfg.LongFlows,
		ShortLoad:      cfg.ShortLoad,
		Sizes:          sizes,
		BottleneckRate: cfg.Link.Rate,
		RTTMin:         cfg.Link.RTT - cfg.RTTSpread/2,
		RTTMax:         cfg.Link.RTT + cfg.RTTSpread/2,
		SegmentSize:    cfg.Link.segment(),
		MaxWindow:      cfg.MaxWindow,
		BufferPackets:  cfg.BufferPackets,
		UseRED:         cfg.RED,
		Warmup:         cfg.Warmup,
		Measure:        cfg.Measure,
		Env:            o.env,
	}
	o.overrideSwitches(&run.Variant, &run.Paced, &run.DelayedAck, &run.UseRED)
	out := experiment.RunMixed(run)
	return MixResult{
		AFCT:            out.AFCT,
		ShortsCompleted: out.Completed,
		Utilization:     out.Utilization,
		MeanQueue:       out.MeanQueue,
	}
}

// TraceFlow is one recorded flow for SimulateTrace: when it starts
// (relative to the simulation start) and its size in segments.
type TraceFlow = workload.FlowSpec

// TraceSimulation configures SimulateTrace: replay recorded flows over a
// bottleneck with a given buffer.
type TraceSimulation struct {
	Seed int64

	Link          Link
	Flows         []TraceFlow
	BufferPackets int // 0 = unlimited
	MaxWindow     int
	RTTSpread     Duration

	// RED switches the bottleneck to Random Early Detection sized to
	// BufferPackets (which must then be positive).
	RED bool
}

// TraceResult summarizes a replayed trace.
type TraceResult struct {
	Completed   int
	Censored    int
	AFCT        Duration
	Utilization float64
}

// Validate reports configuration errors before a run starts; see
// Simulation.Validate.
func (s TraceSimulation) Validate() error {
	return validateSpread(s.Link.RTT, s.RTTSpread)
}

// SimulateTrace replays a recorded flow-level trace (instead of a
// synthetic arrival process) and reports completion statistics — the
// entry point for driving the simulator with real measurement data.
func SimulateTrace(cfg TraceSimulation, opts ...Option) TraceResult {
	o := applyOptions(opts)
	mustValidateSpread(cfg.Link.RTT, cfg.RTTSpread)
	run := experiment.TraceConfig{
		Seed:           cfg.Seed,
		Flows:          cfg.Flows,
		BottleneckRate: cfg.Link.Rate,
		RTTMin:         cfg.Link.RTT - cfg.RTTSpread/2,
		RTTMax:         cfg.Link.RTT + cfg.RTTSpread/2,
		SegmentSize:    cfg.Link.segment(),
		MaxWindow:      cfg.MaxWindow,
		BufferPackets:  cfg.BufferPackets,
		UseRED:         cfg.RED,
		Env:            o.env,
	}
	o.overrideSwitches(&run.Variant, &run.Paced, &run.DelayedAck, &run.UseRED)
	r := experiment.RunTrace(run)
	return TraceResult{
		Completed:   r.Completed,
		Censored:    r.Censored,
		AFCT:        r.AFCT,
		Utilization: r.Utilization,
	}
}

// Pareto returns the heavy-tailed flow-size distribution used by the
// production-mix experiments, exposed for workload construction.
func Pareto(shape float64, minSeg, maxSeg int64) workload.SizeDist {
	return workload.ParetoSize{Shape: shape, Min: minSeg, Max: maxSeg}
}

// Memory is the §1.3 hardware-feasibility verdict for a buffer size: what
// it takes to build it from 2004-vintage commodity memory. It is how the
// paper argues the sqrt(n) rule matters — the difference between boards
// of DRAM and a corner of the packet processor die.
type Memory struct {
	SRAMChips   int  // 36 Mbit devices to hold the buffer
	DRAMChips   int  // 1 Gbit devices to hold the buffer
	DRAMKeepsUp bool // can 50 ns DRAM sustain per-packet access at this rate?
	FitsOnChip  bool // fits in a 256 Mbit embedded-DRAM packet processor?
	Description string
}

// MemoryFeasibility evaluates a buffer of bufferPkts packets on this link
// against the paper's memory technologies.
func (l Link) MemoryFeasibility(bufferPkts int) Memory {
	f := model.Feasibility(l.Rate, ByteSize(bufferPkts)*l.segment())
	return Memory{
		SRAMChips:   f.SRAMChips,
		DRAMChips:   f.DRAMChips,
		DRAMKeepsUp: f.DRAMKeepsUp,
		FitsOnChip:  f.FitsOnChip,
		Description: f.String(),
	}
}
