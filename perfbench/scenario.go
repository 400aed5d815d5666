package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// The two in-process workloads are built here from the simulator's layer
// constructors (sim, topology, queue, tcp, workload.PoissonSource), the
// way the experiment drivers build them, so the benchmark keeps working
// when the experiment-level APIs are reshaped.

// mode selects what a child run attaches to the simulation. Every mode
// must produce the same result digest for a seed: observers only observe.
type mode string

const (
	modePlain   mode = "plain"   // nothing attached: the end-to-end run
	modeProbe   mode = "probe"   // timed bottleneck queue
	modeMetrics mode = "metrics" // telemetry registry on kernel, queue, link and senders
	modeAudit   mode = "audit"   // conservation-law auditor on every layer
)

// long_lived: the paper's core scenario at scale. The buffer is the
// paper's rule B = RTT·C/√n for the nominal 100 ms mean RTT:
// 2 Gb/s × 100 ms / 8000 bit = 25,000 packets, / √1000 ≈ 791.
const (
	llFlows   = 1000
	llRate    = 2 * units.Gbps
	llBuffer  = 791
	llWarmup  = 2 * units.Second
	llMeasure = 6 * units.Second
)

// short_flows: the paper's Figs. 8/9 traffic, Poisson arrivals of
// window-capped slow-start flows; the drain lets flows launched near the
// end of the window finish so their records are complete.
const (
	sfRate     = 100 * units.Mbps
	sfBuffer   = 50
	sfStations = 100
	sfLoad     = 0.8
	sfMeanLen  = 14
	sfMaxWin   = 43
	sfWarmup   = 1 * units.Second
	sfMeasure  = 150 * units.Second
	sfDrain    = 10 * units.Second
)

// timedQueue wraps the bottleneck queue and times every Enqueue and
// Dequeue with two clock reads. Used only in modeProbe.
type timedQueue struct {
	queue.Queue
	ns  time.Duration
	ops int64
}

func (q *timedQueue) Enqueue(p *packet.Packet, now units.Time) bool {
	t0 := time.Now()
	ok := q.Queue.Enqueue(p, now)
	q.ns += time.Since(t0)
	q.ops++
	return ok
}

func (q *timedQueue) Dequeue(now units.Time) *packet.Packet {
	t0 := time.Now()
	p := q.Queue.Dequeue(now)
	q.ns += time.Since(t0)
	q.ops++
	return p
}

// simRun is one built scenario, ready for its first Run.
type simRun struct {
	sched *sim.Scheduler
	d     *topology.Dumbbell
	q     *queue.DropTail
	drv   workload.Driver // nil for long_lived

	warmEnd, end, drainEnd units.Time
	busyAtWarm             units.Duration
	util                   float64 // bottleneck utilization over [warmEnd, end]

	// Observers, set according to the mode.
	timed *timedQueue
	reg   *metrics.Registry
	aud   *audit.Auditor
}

// newDumbbell builds the bottleneck dumbbell with a DropTail queue of
// limit packets and attaches m's observers.
func newDumbbell(cfg topology.Config, limit int, m mode) *simRun {
	r := &simRun{sched: cfg.Sched, q: queue.NewDropTail(queue.PacketLimit(limit))}
	cfg.NewQueue = func() queue.Queue { return r.q }
	switch m {
	case modeProbe:
		r.timed = &timedQueue{Queue: r.q}
		cfg.NewQueue = func() queue.Queue { return r.timed }
	case modeAudit:
		r.aud = audit.New()
		cfg.Auditor = r.aud
	}
	r.d = topology.NewDumbbell(cfg)
	if m == modeMetrics {
		r.reg = metrics.New()
		r.sched.Instrument(r.reg)
		queue.Instrument(r.reg, "bottleneck", r.q)
		r.d.Bottleneck.Instrument(r.reg, "bottleneck")
		tel := tcp.NewTelemetry(r.reg)
		r.d.OnAddFlow = func(f *topology.Flow) { tel.Track(f.Sender) }
	}
	return r
}

// setupLongLived wires llFlows persistent Reno flows, one per station,
// with starts staggered over the first half of the warm-up.
func setupLongLived(seed int64, m mode) *simRun {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	r := newDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  llRate,
		BottleneckDelay: 10 * units.Millisecond,
		Stations:        llFlows,
		RTTMin:          60 * units.Millisecond,
		RTTMax:          140 * units.Millisecond,
	}, llBuffer, m)
	stagger := rng.Fork()
	for i := 0; i < llFlows; i++ {
		f := r.d.AddFlow(r.d.Station(i), tcp.Config{})
		at := units.Epoch.Add(units.Duration(stagger.Uniform(0, float64(llWarmup/2))))
		sched.PostAt(at, f.Sender, tcp.OpStart, nil)
	}
	r.warmEnd = units.Epoch.Add(llWarmup)
	r.end = r.warmEnd.Add(llMeasure)
	r.drainEnd = r.end
	return r
}

// setupShortFlows binds a Poisson source of geometric-length flows onto
// the dumbbell and starts it.
func setupShortFlows(seed int64, m mode) *simRun {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	r := newDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  sfRate,
		BottleneckDelay: 10 * units.Millisecond,
		Stations:        sfStations,
		RTTMin:          60 * units.Millisecond,
		RTTMax:          140 * units.Millisecond,
	}, sfBuffer, m)
	src := workload.PoissonSource{
		Load:  sfLoad,
		Sizes: workload.GeometricSize(sfMeanLen),
		TCP:   tcp.Config{MaxWindow: sfMaxWin},
	}
	r.drv = src.Bind(r.d, rng.Fork())
	r.drv.Start()
	r.warmEnd = units.Epoch.Add(sfWarmup)
	r.end = r.warmEnd.Add(sfMeasure)
	r.drainEnd = r.end.Add(sfDrain)
	return r
}

// setups maps each in-process workload to its set-up function.
var setups = map[string]func(seed int64, m mode) *simRun{
	"long_lived":  setupLongLived,
	"short_flows": setupShortFlows,
}

// execute runs warm-up, measurement and (for short flows) the drain.
func (r *simRun) execute() {
	r.sched.Run(r.warmEnd)
	r.busyAtWarm = r.d.Bottleneck.BusyTime()
	r.sched.Run(r.end)
	r.util = r.d.Bottleneck.Utilization(r.busyAtWarm, r.warmEnd)
	if r.drv != nil {
		r.drv.Stop()
		r.sched.Run(r.drainEnd)
	}
	if r.reg != nil {
		r.reg.Snapshot()
	}
}

// digest hashes the run's simulated outcomes: bottleneck busy time and
// deliveries, queue counters and peak, every wired flow's sender
// counters, and for a generated workload every flow record. The event
// count is left out on purpose: a kernel change may remove events
// without changing what is simulated.
func (r *simRun) digest() string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	bn := r.d.Bottleneck
	put(int64(r.sched.Now()), int64(r.busyAtWarm), int64(bn.BusyTime()), bn.DeliveredPackets(), int64(bn.DeliveredBytes()))
	qs := r.q.Stats()
	put(qs.EnqueuedPackets, qs.DroppedPackets, qs.DequeuedPackets,
		int64(qs.EnqueuedBytes), int64(qs.DroppedBytes), int64(qs.DequeuedBytes), int64(r.q.MaxOccupancy()))
	for _, f := range r.d.Flows() {
		st := f.Sender.Stats()
		put(int64(f.ID), st.SegmentsSent, st.Retransmits, st.Timeouts, st.FastRecoveries,
			st.AcksReceived, st.DupAcksReceived, st.ECNReductions, int64(st.Started), int64(st.Completed))
	}
	if r.drv != nil {
		put(r.drv.Generated())
		for _, rec := range r.drv.Records() {
			put(rec.Size, int64(rec.Start), int64(rec.Completed))
		}
	}
	return hexSum(h)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// layerCounts reads the exact per-layer counts from public getters.
// Sender totals cover every flow ever wired: the dumbbell keeps removed
// flows in Flows().
func (r *simRun) layerCounts() counts {
	bn := r.d.Bottleneck
	qs := r.q.Stats()
	c := counts{
		Events:    r.sched.Processed,
		HeapPeak:  r.sched.MaxPending(),
		Util:      r.util,
		Delivered: bn.DeliveredPackets(),
		Enqueued:  qs.EnqueuedPackets,
		Dropped:   qs.DroppedPackets,
		Wired:     int64(len(r.d.Flows())),
	}
	if r.timed != nil && r.timed.ops > 0 {
		c.QueueOpNs = float64(r.timed.ns.Nanoseconds()) / float64(r.timed.ops)
	}
	for _, f := range r.d.Flows() {
		st := f.Sender.Stats()
		c.Sent += st.SegmentsSent
		c.Retransmits += st.Retransmits
		c.Timeouts += st.Timeouts
	}
	if r.drv != nil {
		c.Started = r.drv.Generated()
		for _, rec := range r.drv.Records() {
			if rec.Completed != units.Never {
				c.Completed++
			}
		}
	}
	return c
}

// counts are a child run's exact per-layer counts.
type counts struct {
	Events      uint64
	HeapPeak    int
	Util        float64
	Delivered   int64
	Enqueued    int64
	Dropped     int64
	QueueOpNs   float64
	Sent        int64
	Retransmits int64
	Timeouts    int64
	Wired       int64
	Started     int64
	Completed   int64
}

// check verifies what an outside observer can: an auditor (if attached)
// saw no violation, the bottleneck was neither idle nor busier than the
// clock, and the queue conserved packets.
func (r *simRun) check() error {
	if r.aud != nil {
		if err := r.aud.Err(); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
	}
	if !(r.util > 0 && r.util <= 1) {
		return fmt.Errorf("bottleneck utilization %v outside (0, 1]", r.util)
	}
	qs := r.q.Stats()
	if qs.EnqueuedPackets != qs.DequeuedPackets+int64(r.q.Len()) {
		return fmt.Errorf("queue lost packets: %d enqueued, %d dequeued, %d queued",
			qs.EnqueuedPackets, qs.DequeuedPackets, r.q.Len())
	}
	return nil
}
