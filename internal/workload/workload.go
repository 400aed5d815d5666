// Package workload generates the paper's traffic mixes: sets of long-lived
// flows with staggered starts (§3, §5.1.1), Poisson arrivals of short
// slow-start flows with configurable size distributions (§4, §5.1.2), and
// combinations of the two (§5.1.3 and the Fig. 11 production mix).
package workload

import (
	"fmt"
	"math"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// SizeDist is a flow-length distribution in segments.
type SizeDist interface {
	// Sample draws one flow length (>= 1).
	Sample(rng *sim.RNG) int64
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution for reports.
	String() string
}

// FixedSize is a degenerate distribution: every flow has exactly N
// segments (the paper's Fig. 8 uses fixed-length short flows).
type FixedSize int64

// Sample implements SizeDist.
func (f FixedSize) Sample(*sim.RNG) int64 { return int64(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

func (f FixedSize) String() string { return fmt.Sprintf("fixed(%d)", int64(f)) }

// GeometricSize draws geometrically distributed flow lengths with the
// given mean — the memoryless baseline mix.
type GeometricSize float64

// Sample implements SizeDist.
func (g GeometricSize) Sample(rng *sim.RNG) int64 { return int64(rng.Geometric(float64(g))) }

// Mean implements SizeDist.
func (g GeometricSize) Mean() float64 { return math.Max(float64(g), 1) }

func (g GeometricSize) String() string { return fmt.Sprintf("geometric(%.1f)", float64(g)) }

// ParetoSize draws bounded-Pareto flow lengths: the heavy-tailed
// distribution of real flow sizes the paper appeals to ("flow lengths
// follow a typically heavy-tailed distribution", §5.1.3).
type ParetoSize struct {
	Shape    float64 // tail index alpha; smaller is heavier
	Min, Max int64   // bounds in segments
}

// Sample implements SizeDist.
func (p ParetoSize) Sample(rng *sim.RNG) int64 {
	v := rng.BoundedPareto(p.Shape, float64(p.Min), float64(p.Max))
	return int64(math.Max(1, math.Round(v)))
}

// Mean implements SizeDist (the analytic truncated-Pareto mean).
func (p ParetoSize) Mean() float64 {
	a := p.Shape
	l, h := float64(p.Min), float64(p.Max)
	if l >= h {
		return l
	}
	norm := 1 - math.Pow(l/h, a)
	if a == 1 {
		return l * math.Log(h/l) / norm
	}
	return a * math.Pow(l, a) / norm * (math.Pow(l, 1-a) - math.Pow(h, 1-a)) / (a - 1)
}

func (p ParetoSize) String() string {
	return fmt.Sprintf("pareto(%.2f,[%d,%d])", p.Shape, p.Min, p.Max)
}

// StartLongLived adds n long-lived flows, one per station (station i gets
// flow i mod stations), with start times drawn uniformly from
// [0, stagger] — the "random (and independent) start times" that
// desynchronize the sawtooths. It returns the flows.
func StartLongLived(d *topology.Dumbbell, n int, spec tcp.Config, rng *sim.RNG, stagger units.Duration) []*topology.Flow {
	if n <= 0 {
		panic(fmt.Sprintf("workload: StartLongLived with n=%d", n))
	}
	spec.TotalSegments = 0
	sched := d.Config().Sched
	flows := make([]*topology.Flow, 0, n)
	for i := 0; i < n; i++ {
		st := d.Station(i % d.NumStations())
		f := d.AddFlow(st, spec)
		flows = append(flows, f)
		at := sched.Now()
		if stagger > 0 {
			at = at.Add(units.Duration(rng.Uniform(0, float64(stagger))))
		}
		sched.PostAt(at, f.Sender, tcp.OpStart, nil)
	}
	return flows
}

// FlowRecord is one completed (or in-flight) short flow.
type FlowRecord struct {
	Size      int64      // segments
	Start     units.Time // first transmission
	Completed units.Time // last segment reached the receiver; units.Never if not yet
}

// Duration returns the flow completion time in the paper's sense (first
// packet sent until last packet received).
func (r FlowRecord) Duration() units.Duration {
	if r.Completed == units.Never {
		return units.Duration(math.MaxInt64)
	}
	return r.Completed.Sub(r.Start)
}

// ShortFlowConfig parameterizes a Poisson short-flow source.
type ShortFlowConfig struct {
	Dumbbell *topology.Dumbbell
	RNG      *sim.RNG

	// Load is the target bottleneck utilization offered by this source
	// (rho); the arrival rate is derived as
	// lambda = rho * C / (E[size] * segment bits).
	Load float64

	// Sizes is the flow-length distribution.
	Sizes SizeDist

	// TCP is the per-flow template; TotalSegments is overwritten per
	// flow. The paper's §4 model assumes short flows respect a modest
	// MaxWindow (12–43).
	TCP tcp.Config
}

// ShortFlows is a Poisson source of finite TCP flows over a dumbbell's
// stations. Each arriving flow takes a uniformly random station, runs to
// completion, and is detached so stations can be reused indefinitely.
type ShortFlows struct {
	cfg       ShortFlowConfig
	sched     *sim.Scheduler
	interMean float64 // seconds
	running   bool

	// Records holds one entry per arrived flow, in arrival order.
	Records []*FlowRecord

	active    int
	generated int64
}

// ArrivalRateForLoad returns the flows-per-second Poisson rate that
// offers the given bottleneck load: lambda = rho * C / (E[size] * segment
// bits). A zero segment size means units.DefaultSegment. Time-varying
// profiles use the same conversion so a constant profile at this rate is
// the stationary source, draw for draw.
func ArrivalRateForLoad(load float64, rate units.BitRate, seg units.ByteSize, sizes SizeDist) float64 {
	if seg == 0 {
		seg = units.DefaultSegment
	}
	segsPerSec := load * float64(rate) / float64(seg.Bits())
	return segsPerSec / sizes.Mean()
}

// NewShortFlows returns a stopped source; call Start.
func NewShortFlows(cfg ShortFlowConfig) *ShortFlows {
	if cfg.Dumbbell == nil || cfg.RNG == nil || cfg.Sizes == nil {
		panic("workload: ShortFlowConfig requires Dumbbell, RNG and Sizes")
	}
	if cfg.Load <= 0 || cfg.Load >= 1 {
		panic(fmt.Sprintf("workload: short-flow load %v out of (0,1)", cfg.Load))
	}
	lambda := ArrivalRateForLoad(cfg.Load, cfg.Dumbbell.Config().BottleneckRate, cfg.TCP.SegmentSize, cfg.Sizes)
	return &ShortFlows{
		cfg:       cfg,
		sched:     cfg.Dumbbell.Config().Sched,
		interMean: 1 / lambda,
	}
}

// ArrivalRate returns the source's flows-per-second rate.
func (g *ShortFlows) ArrivalRate() float64 { return 1 / g.interMean }

// Start begins Poisson arrivals.
func (g *ShortFlows) Start() {
	if g.running {
		panic("workload: ShortFlows started twice")
	}
	g.running = true
	g.scheduleNext()
}

// Stop halts new arrivals; in-flight flows run to completion.
func (g *ShortFlows) Stop() { g.running = false }

// Active returns the number of flows currently in flight.
func (g *ShortFlows) Active() int { return g.active }

// Generated returns the total number of flows started.
func (g *ShortFlows) Generated() int64 { return g.generated }

// ShortFlows event opcodes (see sim.Actor).
const (
	// opArrival: the next Poisson arrival is due.
	opArrival int32 = iota
	// opDetach: a completed flow's grace period elapsed; unwire it. The
	// payload is the *topology.Flow.
	opDetach
)

// OnEvent implements sim.Actor: arrivals and detaches are typed kernel
// events, so a short-flow workload allocates per flow, never per timer.
func (g *ShortFlows) OnEvent(op int32, arg any) {
	switch op {
	case opArrival:
		if !g.running {
			return
		}
		g.launch()
		g.scheduleNext()
	case opDetach:
		g.cfg.Dumbbell.RemoveFlow(arg.(*topology.Flow))
	}
}

func (g *ShortFlows) scheduleNext() {
	wait := units.DurationFromSeconds(g.cfg.RNG.Exp(g.interMean))
	g.sched.PostAfter(wait, g, opArrival, nil)
}

func (g *ShortFlows) launch() {
	d := g.cfg.Dumbbell
	size := g.cfg.Sizes.Sample(g.cfg.RNG)
	spec := g.cfg.TCP
	spec.TotalSegments = size
	st := d.Station(g.cfg.RNG.Intn(d.NumStations()))
	f := d.AddFlow(st, spec)

	rec := &FlowRecord{Size: size, Start: g.sched.Now(), Completed: units.Never}
	g.Records = append(g.Records, rec)
	g.generated++
	g.active++

	f.Receiver.OnComplete = func(now units.Time) {
		rec.Completed = now
		g.active--
		// Defer the detach so the final ACK still reaches the sender
		// (the sender needs it to cancel its RTO and finish).
		g.sched.PostAfter(f.Station.RTT, g, opDetach, f)
	}
	f.Sender.Start()
}

// AFCT returns the average flow completion time over flows that started in
// [from, to], along with how many such flows completed and how many did
// not (censored). Censored flows are excluded from the average, so callers
// should drain the system (or report incomplete) before trusting the
// number.
func (g *ShortFlows) AFCT(from, to units.Time) (afct units.Duration, completed, censored int) {
	return RecordAFCT(g.Records, from, to)
}
