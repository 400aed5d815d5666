// Package experiment reproduces the paper's evaluation: every figure and
// table in §5 has a driver here that builds the scenario, runs it, and
// returns the same rows or series the paper reports. The drivers are what
// cmd/paperexp and the repository benchmarks call.
//
// Scaling: every config carries its own rates, flow counts and durations,
// so tests can run scaled-down instances while the benchmarks run the
// published parameters.
package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/runcache"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// LongLivedConfig describes one long-lived-flow utilization run: n
// persistent TCP flows over a dumbbell with a given bottleneck buffer.
type LongLivedConfig struct {
	Seed int64

	N               int
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize
	MaxWindow       int // 0: effectively unbounded
	BufferPackets   int

	// UseRED switches the bottleneck to RED with conventional thresholds
	// scaled to BufferPackets (the §5.1 "other queueing disciplines"
	// ablation).
	UseRED bool
	// ECN (requires UseRED) makes RED mark instead of drop and the
	// senders ECN-capable: congestion feedback without loss.
	ECN bool
	// UseCoDel switches the bottleneck to CoDel (5 ms target) with
	// BufferPackets as the physical capacity — the delay-managed
	// alternative to sizing the buffer at all.
	UseCoDel bool

	Warmup  units.Duration // excluded from measurement
	Measure units.Duration // measurement window

	// Variant selects the congestion-control flavour (Reno default).
	Variant    tcp.Variant
	DelayedAck bool
	// Paced enables sender pacing (the TR's small-buffer remedy).
	Paced bool

	// Metrics, when non-nil, receives the run's telemetry (scheduler,
	// bottleneck queue and link, TCP aggregates). Telemetry only observes:
	// the packet trace is identical with Metrics nil or set.
	Metrics *metrics.Registry

	// Audit, when non-nil, runs the scenario under the conservation-law
	// checker (see internal/audit): kernel, queues, links and TCP
	// endpoints report invariant violations into it. Like Metrics, audit
	// only observes — results are bit-identical with Audit nil or set.
	Audit *audit.Auditor

	// MeanQueueIncludesWarmup reverts MeanQueue to the legacy behaviour of
	// averaging the bottleneck occupancy from t=0 instead of from the end
	// of the warmup window. Only the pinned-digest determinism tests set
	// it; new callers want the unbiased measurement-window default.
	MeanQueueIncludesWarmup bool

	// Parallelism bounds worker goroutines when this config drives a
	// multi-run driver (RunLongLivedReplicated); 0 means the machine's
	// parallelism. A single RunLongLived is always one goroutine.
	Parallelism int

	// Cache, when non-nil, memoizes the run's result in the
	// content-addressed run cache: a repeat run with the same semantic
	// config replays the stored result instead of re-simulating. The
	// cache observes only — results are bit-identical with Cache nil or
	// set. Runs with Metrics or Audit attached always simulate (the
	// hooks need a live run) but still warm the cache.
	Cache *runcache.Store

	// Resume, with Cache set, continues the sweep checkpoint left by an
	// interrupted replicated run instead of starting a fresh record.
	Resume bool

	// Ctx, when non-nil, cancels a replicated sweep between points
	// (in-flight points finish). A single RunLongLived ignores it.
	Ctx context.Context
}

func (c LongLivedConfig) withDefaults() LongLivedConfig {
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = 5 * units.Millisecond
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 100 * units.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// LongLivedResult is the outcome of one long-lived run.
type LongLivedResult struct {
	N             int
	BufferPackets int
	// Utilization is the bottleneck busy fraction over the measurement
	// window — the paper's primary metric.
	Utilization float64
	// LossRate is the bottleneck drop fraction over the window.
	LossRate float64
	// MeanQueue is the time-averaged bottleneck occupancy in packets
	// (drop-tail runs only; 0 under RED).
	MeanQueue float64
	// RetransmitFraction is retransmitted segments / segments sent over
	// the window, across all senders: the efficiency cost of small
	// buffers the §5.1.1 loss-rate discussion predicts.
	RetransmitFraction float64
	// Timeouts across all senders during the whole run.
	Timeouts int64
	// QueueDelayMean and QueueDelayP99 are the per-packet bottleneck
	// queueing delays over the window — the latency cost of buffering,
	// the paper's second argument against overbuffering (§1.1).
	QueueDelayMean units.Duration
	QueueDelayP99  units.Duration
	// Fairness is Jain's index over per-flow segments sent in the
	// window (1 = perfectly even shares).
	Fairness float64
}

// redQueueHook returns a topology.Config.NewQueue constructor building a
// RED bottleneck with conventional thresholds scaled to bufferPkts (and
// optional ECN marking), drawing its drop randomness from redRNG. Every
// scenario that honours UseRED goes through this one helper so RED means
// the same thing everywhere.
func redQueueHook(bufferPkts int, segment units.ByteSize, rate units.BitRate, redRNG *sim.RNG, ecn bool) func() queue.Queue {
	if bufferPkts <= 0 {
		panic("experiment: UseRED requires BufferPackets > 0 (RED thresholds scale with the physical buffer)")
	}
	meanPkt := units.TransmissionTime(segment, rate)
	return func() queue.Queue {
		redCfg := queue.DefaultRED(bufferPkts, meanPkt, redRNG.Float64)
		redCfg.MarkECN = ecn
		return queue.NewRED(redCfg)
	}
}

// RunLongLived executes one long-lived-flow scenario. With cfg.Cache
// set, a previously computed result for the same semantic config is
// replayed from the cache instead of re-simulated.
func RunLongLived(cfg LongLivedConfig) LongLivedResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.Cache, "long-lived", cfg, cfg.Metrics != nil || cfg.Audit != nil, func() LongLivedResult {
		return runLongLived(cfg)
	})
}

// runLongLived is the uncached body of RunLongLived; cfg has defaults
// applied.
func runLongLived(cfg LongLivedConfig) LongLivedResult {
	wallStart := time.Now()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)

	topoCfg := topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.BottleneckDelay,
		Buffer:          queue.PacketLimit(cfg.BufferPackets),
		Stations:        cfg.N,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		Auditor:         cfg.Audit,
	}
	if cfg.ECN && !cfg.UseRED {
		panic("experiment: ECN requires UseRED (a marking-capable queue)")
	}
	if cfg.UseCoDel && cfg.UseRED {
		panic("experiment: UseCoDel and UseRED are mutually exclusive")
	}
	if cfg.UseCoDel {
		topoCfg.NewQueue = func() queue.Queue {
			return queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(cfg.BufferPackets)})
		}
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(cfg.BufferPackets, cfg.SegmentSize, cfg.BottleneckRate, rng.Fork(), cfg.ECN)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(cfg.Metrics, sched, d)

	spec := tcp.Config{
		SegmentSize: cfg.SegmentSize,
		MaxWindow:   cfg.MaxWindow,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
		ECN:         cfg.ECN,
	}
	// Stagger starts across half the warmup so slow-start bursts do not
	// synchronize artificially.
	workload.StartLongLived(d, cfg.N, spec, rng.Fork(), cfg.Warmup/2)

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	if d.DropTail != nil && !cfg.MeanQueueIncludesWarmup {
		d.DropTail.ResetOccupancy(warmEnd)
	}
	// Record per-packet queueing delays from here on. The reservoir is
	// bounded to keep long runs flat in memory; beyond it we keep a
	// running mean only (P99 over the first million delays is plenty).
	var delays []float64
	var delaySum units.Duration
	var delayN int64
	d.Bottleneck.OnDequeue = func(_ *packet.Packet, queued units.Duration) {
		delaySum += queued
		delayN++
		if len(delays) < 1<<20 {
			delays = append(delays, float64(queued))
		}
	}
	busySnap := d.Bottleneck.BusyTime()
	statsSnap := d.Bottleneck.Queue().Stats()
	type sendSnap struct{ sent, rtx int64 }
	senderSnaps := make([]sendSnap, len(d.Flows()))
	for i, f := range d.Flows() {
		st := f.Sender.Stats()
		senderSnaps[i] = sendSnap{st.SegmentsSent, st.Retransmits}
	}

	end := warmEnd.Add(cfg.Measure)
	sched.Run(end)

	qs := d.Bottleneck.Queue().Stats()
	offered := (qs.EnqueuedPackets - statsSnap.EnqueuedPackets) + (qs.DroppedPackets - statsSnap.DroppedPackets)
	loss := 0.0
	if offered > 0 {
		loss = float64(qs.DroppedPackets-statsSnap.DroppedPackets) / float64(offered)
	}
	res := LongLivedResult{
		N:             cfg.N,
		BufferPackets: cfg.BufferPackets,
		Utilization:   d.Bottleneck.Utilization(busySnap, warmEnd),
		LossRate:      loss,
	}
	if d.DropTail != nil {
		res.MeanQueue = d.DropTail.MeanOccupancy(end)
	}
	var sent, rtx int64
	perFlow := make([]float64, len(d.Flows()))
	for i, f := range d.Flows() {
		st := f.Sender.Stats()
		res.Timeouts += st.Timeouts
		flowSent := st.SegmentsSent - senderSnaps[i].sent
		perFlow[i] = float64(flowSent)
		sent += flowSent
		rtx += st.Retransmits - senderSnaps[i].rtx
	}
	if sent > 0 {
		res.RetransmitFraction = float64(rtx) / float64(sent)
	}
	res.Fairness = stats.JainIndex(perFlow)
	if delayN > 0 {
		res.QueueDelayMean = delaySum / units.Duration(delayN)
		res.QueueDelayP99 = units.Duration(stats.Percentile(delays, 99))
	}
	observeWallTime(cfg.Metrics, wallStart, sched)
	return res
}

// SqrtRuleBuffer returns the paper's buffer recommendation for a config:
// MeanRTT x C / sqrt(n), in packets, never below 1.
func SqrtRuleBuffer(bdpPackets float64, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("experiment: n=%d", n))
	}
	b := int(math.Round(bdpPackets / math.Sqrt(float64(n))))
	if b < 1 {
		b = 1
	}
	return b
}

// MeasuredUtilization is a convenience wrapper used by search loops.
func MeasuredUtilization(cfg LongLivedConfig, bufferPkts int) float64 {
	cfg.BufferPackets = bufferPkts
	return RunLongLived(cfg).Utilization
}

// ReplicatedResult aggregates one scenario across independent seeds.
type ReplicatedResult struct {
	Replicas        int
	MeanUtilization float64
	StdDev          float64
	Min, Max        float64
}

// RunLongLivedReplicated runs the scenario under k different seeds
// (cfg.Seed, cfg.Seed+1, ...) and reports utilization statistics — the
// error bars the single-run drivers omit. Replicas run through the
// sweep orchestrator: in parallel, cached per seed, and checkpointed.
func RunLongLivedReplicated(cfg LongLivedConfig, k int) ReplicatedResult {
	if k <= 0 {
		panic(fmt.Sprintf("experiment: replicas = %d", k))
	}
	utils := make([]float64, k)
	runSweep(sweepSpec{
		name: "replicated",
		cfg: struct {
			Base LongLivedConfig
			K    int
		}{cfg, k},
		cache:       cfg.Cache,
		resume:      cfg.Resume,
		ctx:         cfg.Ctx,
		parallelism: cfg.Parallelism,
		metrics:     cfg.Metrics,
	}, k, func(i int) {
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		run.Metrics = nil // per-replica telemetry would race; stats go to cfg.Metrics post-sweep
		utils[i] = RunLongLived(run).Utilization
	})
	var w stats.Welford
	for _, u := range utils {
		w.Add(u)
	}
	return ReplicatedResult{
		Replicas:        k,
		MeanUtilization: w.Mean(),
		StdDev:          w.StdDev(),
		Min:             w.Min(),
		Max:             w.Max(),
	}
}

// MinBufferForUtilization finds the smallest buffer (packets) achieving
// target utilization for the given long-lived scenario, by bisection on
// [1, hi]. Utilization is noisy, so the search treats the response as
// monotone and uses a single run per probe; callers choose Measure long
// enough for the noise floor they care about.
func MinBufferForUtilization(cfg LongLivedConfig, target float64, hi int) int {
	if hi < 2 {
		panic("experiment: search upper bound too small")
	}
	lo := 1
	if MeasuredUtilization(cfg, lo) >= target {
		return lo
	}
	if MeasuredUtilization(cfg, hi) < target {
		return hi // not achievable within bound; report the bound
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if MeasuredUtilization(cfg, mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// fitNormal returns the sample mean and standard deviation.
func fitNormal(sample []float64) (mean, sd float64) {
	var w stats.Welford
	for _, v := range sample {
		w.Add(v)
	}
	return w.Mean(), w.StdDev()
}
