package workload

import (
	"fmt"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// SessionConfig describes a Harpoon-style traffic source (Sommers &
// Barford, the generator behind the paper's §5.2 lab experiment): a fixed
// population of sessions, each looping "transfer a heavy-tailed file,
// think for an exponential pause, repeat". The number of *active* flows
// fluctuates around an equilibrium set by the transfer and think times —
// exactly how the lab's "n flows" were produced, as opposed to the ns-2
// experiments' permanently-backlogged senders.
type SessionConfig struct {
	Dumbbell *topology.Dumbbell
	RNG      *sim.RNG

	// Sessions is the population size. Each session binds to a station
	// round-robin.
	Sessions int

	// Sizes is the file-size distribution in segments.
	Sizes SizeDist

	// MeanThink is the average pause between a session's transfers.
	MeanThink units.Duration

	// TCP is the per-transfer template; TotalSegments is set per file.
	TCP tcp.Config
}

// Sessions is a running Harpoon-like source.
type Sessions struct {
	cfg   SessionConfig
	sched *sim.Scheduler

	running bool
	active  int

	// Transfers counts completed file transfers; Records keeps one entry
	// per transfer for flow-size and completion accounting.
	Transfers int64
	Records   []*FlowRecord
}

// Sessions event opcodes (see sim.Actor).
const (
	opSessionTransfer int32 = iota // arg: *topology.Station
	opSessionRemove                // arg: *topology.Flow
)

// OnEvent implements sim.Actor: session recycling runs through the
// kernel's typed-event path, so a large session population schedules no
// per-event closures.
func (g *Sessions) OnEvent(op int32, arg any) {
	switch op {
	case opSessionTransfer:
		g.transfer(arg.(*topology.Station))
	case opSessionRemove:
		g.cfg.Dumbbell.RemoveFlow(arg.(*topology.Flow))
	}
}

// NewSessions returns a stopped source; call Start.
func NewSessions(cfg SessionConfig) *Sessions {
	if cfg.Dumbbell == nil || cfg.RNG == nil || cfg.Sizes == nil {
		panic("workload: SessionConfig requires Dumbbell, RNG and Sizes")
	}
	if cfg.Sessions <= 0 {
		panic(fmt.Sprintf("workload: Sessions = %d", cfg.Sessions))
	}
	if cfg.MeanThink <= 0 {
		cfg.MeanThink = units.Second
	}
	return &Sessions{cfg: cfg, sched: cfg.Dumbbell.Config().Sched}
}

// Start launches every session, desynchronized by an initial random think
// pause.
func (g *Sessions) Start() {
	if g.running {
		panic("workload: Sessions started twice")
	}
	g.running = true
	for i := 0; i < g.cfg.Sessions; i++ {
		station := g.cfg.Dumbbell.Station(i % g.cfg.Dumbbell.NumStations())
		delay := units.DurationFromSeconds(g.cfg.RNG.Exp(g.cfg.MeanThink.Seconds()))
		g.sched.PostAfter(delay, g, opSessionTransfer, station)
	}
}

// Stop lets in-flight transfers finish but schedules no more.
func (g *Sessions) Stop() { g.running = false }

// Active returns the number of transfers currently in flight — the
// equilibrium version of the paper's "number of concurrent flows".
func (g *Sessions) Active() int { return g.active }

func (g *Sessions) transfer(station *topology.Station) {
	if !g.running {
		return
	}
	d := g.cfg.Dumbbell
	spec := g.cfg.TCP
	spec.TotalSegments = g.cfg.Sizes.Sample(g.cfg.RNG)
	f := d.AddFlow(station, spec)
	rec := &FlowRecord{Size: spec.TotalSegments, Start: g.sched.Now(), Completed: units.Never}
	g.Records = append(g.Records, rec)
	g.active++

	f.Receiver.OnComplete = func(now units.Time) {
		rec.Completed = now
		g.active--
		g.Transfers++
		// Give the final ACK time to drain, then recycle the session
		// after its think pause.
		g.sched.PostAfter(f.Station.RTT, g, opSessionRemove, f)
		think := units.DurationFromSeconds(g.cfg.RNG.Exp(g.cfg.MeanThink.Seconds()))
		g.sched.PostAfter(think, g, opSessionTransfer, station)
	}
	f.Sender.Start()
}
