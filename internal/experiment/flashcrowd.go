package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/queue"
	"bufsim/internal/runcache"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// ProfileRunConfig is one run of an arbitrary workload.Source — a
// time-varying profile, a trace, sessions, or the legacy stationary
// Poisson source — over a single bottleneck. It is the unified back end
// the workload API redesign threads every traffic front end through:
// the topology and window parameters mirror ShortFlowRunConfig, so a
// stationary PoissonSource here reproduces ShortFlowAFCT exactly.
type ProfileRunConfig struct {
	Seed int64

	Rate          units.BitRate
	MeanRTT       units.Duration // station RTTs spread +-40% around this
	SegmentSize   units.ByteSize
	BufferPackets int // 0 = unlimited

	// Source is the workload; required. Sources are pure data, so the
	// run cache keys on the source's concrete type and fields.
	Source workload.Source

	Stations int
	// UseRED switches the bottleneck to RED sized to BufferPackets
	// (which must then be positive — RED thresholds need a capacity).
	UseRED bool

	Warmup, Measure units.Duration
	// Drain is how long after the measurement window flows may finish
	// before being counted censored (default 30s, as ShortFlowAFCT).
	Drain units.Duration

	// Metrics, Audit and Cache follow LongLivedConfig's semantics.
	Metrics *metrics.Registry
	Audit   *audit.Auditor
	Cache   *runcache.Store
}

func (c ProfileRunConfig) withDefaults() ProfileRunConfig {
	if c.MeanRTT == 0 {
		c.MeanRTT = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	if c.Drain == 0 {
		c.Drain = 30 * units.Second
	}
	return c
}

// ProfileRunResult is the cacheable outcome of one workload run: the
// bottleneck's view (utilization, loss, queue occupancy) plus the
// workload's (active-flow trajectory, flow completion times).
type ProfileRunResult struct {
	// Utilization is the bottleneck busy fraction over the measurement
	// window.
	Utilization float64
	// LossRate is dropped/offered at the bottleneck queue over the
	// measurement window.
	LossRate float64
	// MeanQueue and PeakQueue are the bottleneck queue occupancy over
	// the measurement window, in packets (drop-tail only; zero under
	// RED).
	MeanQueue float64
	PeakQueue int
	// MeanActive and PeakActive summarize the sampled n(t) — in-flight
	// short flows plus live long-lived flows — over the window.
	MeanActive float64
	PeakActive float64
	// Generated counts flows launched during the whole run; AFCT,
	// Completed and Censored cover flows that started in the window
	// (censored = still unfinished after the drain period).
	Generated int64
	AFCT      units.Duration
	Completed int
	Censored  int
}

// RunProfile runs one workload scenario. With cfg.Cache set the outcome
// is memoized under the config (source included).
func RunProfile(cfg ProfileRunConfig) ProfileRunResult {
	cfg = cfg.withDefaults()
	if cfg.Source == nil {
		panic("experiment: ProfileRunConfig requires a Source")
	}
	return memoRun(cfg.Cache, "profile", cfg, cfg.Metrics != nil || cfg.Audit != nil, func() ProfileRunResult {
		return runProfileUncached(cfg)
	})
}

// runProfileUncached is the uncached body of RunProfile; cfg has
// defaults applied. The build-up sequence (scheduler, RNG forks,
// topology, generator) matches runShortFlowAFCT step for step so a
// stationary source reproduces it draw for draw.
func runProfileUncached(cfg ProfileRunConfig) ProfileRunResult {
	wallStart := time.Now()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(cfg.Seed)
	limit := queue.Unlimited()
	if cfg.BufferPackets > 0 {
		limit = queue.PacketLimit(cfg.BufferPackets)
	}
	topoCfg := topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  cfg.Rate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          limit,
		Stations:        cfg.Stations,
		RTTMin:          cfg.MeanRTT * 6 / 10,
		RTTMax:          cfg.MeanRTT * 14 / 10,
		Auditor:         cfg.Audit,
	}
	if cfg.UseRED {
		topoCfg.NewQueue = redQueueHook(cfg.BufferPackets, cfg.SegmentSize, cfg.Rate, rng.Fork(), false)
	}
	d := topology.NewDumbbell(topoCfg)
	instrumentDumbbell(cfg.Metrics, sched, d)
	drv := cfg.Source.Bind(d, rng.Fork())
	drv.Start()

	active := trace.NewSampler(sched, "active", 100*units.Millisecond,
		func() float64 { return float64(drv.Active()) })

	warmEnd := units.Epoch.Add(cfg.Warmup)
	sched.Run(warmEnd)
	busySnap := d.Bottleneck.BusyTime()
	statsSnap := d.Bottleneck.Queue().Stats()
	if d.DropTail != nil {
		d.DropTail.ResetOccupancy(warmEnd)
	}

	measureEnd := warmEnd.Add(cfg.Measure)
	sched.Run(measureEnd)

	res := ProfileRunResult{
		Utilization: d.Bottleneck.Utilization(busySnap, warmEnd),
	}
	qs := d.Bottleneck.Queue().Stats()
	offered := (qs.EnqueuedPackets - statsSnap.EnqueuedPackets) + (qs.DroppedPackets - statsSnap.DroppedPackets)
	if offered > 0 {
		res.LossRate = float64(qs.DroppedPackets-statsSnap.DroppedPackets) / float64(offered)
	}
	if d.DropTail != nil {
		res.MeanQueue = d.DropTail.MeanOccupancy(measureEnd)
		res.PeakQueue = d.DropTail.MaxOccupancy()
	}
	series := active.Series().Window(cfg.Warmup.Seconds(), measureEnd.Sub(units.Epoch).Seconds())
	for _, v := range series.Values {
		res.MeanActive += v
		if v > res.PeakActive {
			res.PeakActive = v
		}
	}
	if series.Len() > 0 {
		res.MeanActive /= float64(series.Len())
	}

	drv.Stop()
	// Drain so flows that started in the window can complete.
	sched.Run(measureEnd.Add(cfg.Drain))
	observeWallTime(cfg.Metrics, wallStart, sched)
	res.Generated = drv.Generated()
	res.AFCT, res.Completed, res.Censored = workload.RecordAFCT(drv.Records(), warmEnd, measureEnd)
	return res
}

// FlashCrowdConfig sweeps buffer sizes against a traffic surge: a
// time-varying profile whose arrival rate and long-lived population
// spike together, the n(t) regime the 2004 rule's fixed n never
// modeled. For each buffer the sweep reports loss, utilization and
// queue occupancy through the surge.
type FlashCrowdConfig struct {
	Seed int64

	BottleneckRate units.BitRate
	MeanRTT        units.Duration
	SegmentSize    units.ByteSize
	Stations       int
	MaxWindow      int // short-flow receiver cap; paper cites 12-43

	// Profile is the workload shape; the zero value means the
	// flashcrowd preset. Curves are treated as shapes and rescaled so
	// the arrival peak offers PeakLoad and the population peak is
	// PeakFlows (see profile.Profile.ScaleTo).
	Profile profile.Profile
	// PeakLoad is the short-flow offered load at the arrival peak
	// (default 0.85; the quiet baseline is the preset's 10% of that).
	PeakLoad float64
	// PeakFlows is the long-lived population at the spike's peak
	// (default 20).
	PeakFlows int
	// FlowLength is the short-flow size in segments (default 14).
	FlowLength int64

	// Buffers lists the swept buffer sizes in packets; empty derives
	// {5%, 12.5%, 25%, 50%, 100%} of the bandwidth-delay product.
	Buffers []int

	// Variant selects the congestion control for every flow.
	Variant tcp.Variant

	Warmup, Measure, Drain units.Duration

	// Metrics, Audit, Cache, Resume, Parallelism and Ctx follow
	// LongLivedConfig's semantics; the sweep is checkpointed and
	// resumable like every other cached sweep.
	Metrics     *metrics.Registry
	Audit       *audit.Auditor
	Cache       *runcache.Store
	Resume      bool
	Parallelism int
	Ctx         context.Context
}

func (c FlashCrowdConfig) withDefaults() FlashCrowdConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 50 * units.Mbps
	}
	if c.MeanRTT == 0 {
		c.MeanRTT = 100 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 32
	}
	if len(c.Profile.Arrival) == 0 && len(c.Profile.Population) == 0 {
		c.Profile = profile.FlashCrowd.Profile()
	}
	if c.PeakLoad == 0 {
		c.PeakLoad = 0.85
	}
	if c.PeakFlows == 0 {
		c.PeakFlows = 20
	}
	if c.FlowLength == 0 {
		c.FlowLength = 14
	}
	if len(c.Buffers) == 0 {
		bdp := float64(units.PacketsInFlight(c.BottleneckRate, c.MeanRTT, c.SegmentSize))
		for _, f := range []float64{0.05, 0.125, 0.25, 0.5, 1.0} {
			b := int(math.Max(1, math.Round(f*bdp)))
			if n := len(c.Buffers); n == 0 || c.Buffers[n-1] != b {
				c.Buffers = append(c.Buffers, b)
			}
		}
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = c.Profile.Duration()
		if c.Measure == 0 {
			c.Measure = 60 * units.Second
		}
	}
	if c.Drain == 0 {
		c.Drain = 30 * units.Second
	}
	return c
}

// flashCrowdSource builds the swept workload: the config's profile
// rescaled to its load and population targets.
func flashCrowdSource(cfg FlashCrowdConfig) workload.Source {
	sizes := workload.FixedSize(cfg.FlowLength)
	peakRate := workload.ArrivalRateForLoad(cfg.PeakLoad, cfg.BottleneckRate, cfg.SegmentSize, sizes)
	return profile.Source{
		Profile: cfg.Profile.ScaleTo(peakRate, float64(cfg.PeakFlows)),
		Sizes:   sizes,
		TCP: tcp.Config{
			SegmentSize: cfg.SegmentSize,
			MaxWindow:   cfg.MaxWindow,
			Variant:     cfg.Variant,
		},
		LongTCP: tcp.Config{
			SegmentSize: cfg.SegmentSize,
			Variant:     cfg.Variant,
		},
	}
}

// FlashCrowdRow is one swept buffer's outcome.
type FlashCrowdRow struct {
	// Buffer is the bottleneck buffer in packets; BufferBDP the same as
	// a fraction of the bandwidth-delay product.
	Buffer    int
	BufferBDP float64

	Utilization float64
	LossRate    float64
	MeanQueue   float64
	PeakQueue   int
	MeanActive  float64
	PeakActive  float64
	AFCT        units.Duration
	Completed   int
	Censored    int
}

// FlashCrowdTable is the flashcrowd experiment's dataset: buffer size
// vs how the bottleneck rides out the surge.
type FlashCrowdTable []FlashCrowdRow

// Table implements Result.
func (t FlashCrowdTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Buffer\txBDP\tUtil\tLoss\tMeanQ\tPeakQ\tPeakN\tAFCT\tFlows\tCensored")
		for _, r := range t {
			fmt.Fprintf(tw, "%d\t%.3f\t%.1f%%\t%.2f%%\t%.1f\t%d\t%.0f\t%v\t%d\t%d\n",
				r.Buffer, r.BufferBDP, 100*r.Utilization, 100*r.LossRate,
				r.MeanQueue, r.PeakQueue, r.PeakActive, roundMS(r.AFCT), r.Completed, r.Censored)
		}
	})
}

// WriteJSON implements Result.
func (t FlashCrowdTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

// RunFlashCrowd executes the flashcrowd experiment: one RunProfile per
// buffer size, fanned out through the checkpointed sweep runner, every
// point memoized (source included in the key) when a cache is set.
func RunFlashCrowd(cfg FlashCrowdConfig) FlashCrowdTable {
	cfg = cfg.withDefaults()
	src := flashCrowdSource(cfg)
	bdp := float64(units.PacketsInFlight(cfg.BottleneckRate, cfg.MeanRTT, cfg.SegmentSize))
	out := make(FlashCrowdTable, len(cfg.Buffers))
	runSweep(sweepSpec{
		name:        "flashcrowd",
		cfg:         cfg,
		cache:       cfg.Cache,
		resume:      cfg.Resume,
		ctx:         cfg.Ctx,
		parallelism: cfg.Parallelism,
		metrics:     cfg.Metrics,
	}, len(cfg.Buffers), func(k int) {
		buffer := cfg.Buffers[k]
		res := RunProfile(ProfileRunConfig{
			Seed:          cfg.Seed,
			Rate:          cfg.BottleneckRate,
			MeanRTT:       cfg.MeanRTT,
			SegmentSize:   cfg.SegmentSize,
			BufferPackets: buffer,
			Source:        src,
			Stations:      cfg.Stations,
			Warmup:        cfg.Warmup,
			Measure:       cfg.Measure,
			Drain:         cfg.Drain,
			Audit:         cfg.Audit,
			Cache:         cfg.Cache,
		})
		out[k] = FlashCrowdRow{
			Buffer:      buffer,
			BufferBDP:   float64(buffer) / bdp,
			Utilization: res.Utilization,
			LossRate:    res.LossRate,
			MeanQueue:   res.MeanQueue,
			PeakQueue:   res.PeakQueue,
			MeanActive:  res.MeanActive,
			PeakActive:  res.PeakActive,
			AFCT:        res.AFCT,
			Completed:   res.Completed,
			Censored:    res.Censored,
		}
	})
	if cfg.Metrics != nil {
		// Telemetry pass: re-run each point with a child registry merged
		// under the point's label; the swept rows never see a registry,
		// so they are byte-identical with Metrics nil or set.
		for _, r := range out {
			if r.Buffer == 0 {
				continue // point never ran (cancelled sweep)
			}
			child := metrics.New()
			RunProfile(ProfileRunConfig{
				Seed:          cfg.Seed,
				Rate:          cfg.BottleneckRate,
				MeanRTT:       cfg.MeanRTT,
				SegmentSize:   cfg.SegmentSize,
				BufferPackets: r.Buffer,
				Source:        src,
				Stations:      cfg.Stations,
				Warmup:        cfg.Warmup,
				Measure:       cfg.Measure,
				Drain:         cfg.Drain,
				Metrics:       child,
				Cache:         cfg.Cache,
			})
			cfg.Metrics.Merge(fmt.Sprintf("buffer=%d", r.Buffer), child)
		}
	}
	return out
}
