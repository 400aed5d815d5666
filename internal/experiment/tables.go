package experiment

import (
	"fmt"
	"math"

	"bufsim/internal/metrics"
	"bufsim/internal/model"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// UtilizationTableConfig reproduces Fig. 10: the Cisco-GSR validation
// table. For each flow count and each multiple of RTTxC/sqrt(n) it reports
// the model's predicted utilization and the simulated utilization (the
// paper's third column, Exp., was the physical router we substitute with
// the same scenario in this simulator — see DESIGN.md).
type UtilizationTableConfig struct {
	Seed int64

	Ns      []int     // paper: 100, 200, 300, 400
	Factors []float64 // paper: 0.5, 1, 2, 3

	BottleneckRate  units.BitRate // paper: OC3
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize

	UseRED bool // ablation: run the same table under RED

	Warmup, Measure units.Duration

	Env
}

func (c UtilizationTableConfig) withDefaults() UtilizationTableConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{100, 200, 300, 400}
	}
	if len(c.Factors) == 0 {
		c.Factors = []float64{0.5, 1, 2, 3}
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = units.OC3
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = 10 * units.Millisecond
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
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
	}
	return c
}

// UtilizationRow is one Fig. 10 row.
type UtilizationRow struct {
	N       int
	Factor  float64 // multiple of RTTxC/sqrt(n)
	Packets int     // buffer in packets
	RAMMbit float64 // buffer size in megabits (paper's "RAM" column)

	ModelUtil float64 // Gaussian-model prediction
	SimUtil   float64 // measured in simulation
	LossRate  float64
}

// RunUtilizationTable executes the Fig. 10 table. With cfg.Metrics set,
// each (n, factor) cell runs with its own child registry, merged in cell
// order under an "n=...,factor=..." prefix once the sweep finishes, so
// rows are identical with Metrics nil or set, at any Parallelism.
func RunUtilizationTable(cfg UtilizationTableConfig) UtilizationTable {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize)

	type cell struct{ n, factorIdx int }
	var cells []cell
	for i := range cfg.Ns {
		for j := range cfg.Factors {
			cells = append(cells, cell{i, j})
		}
	}
	rows := make([]UtilizationRow, len(cells))
	var cellRegs []*metrics.Registry
	if cfg.Metrics != nil {
		cellRegs = make([]*metrics.Registry, len(cells))
		for k := range cellRegs {
			cellRegs[k] = metrics.New()
		}
	}
	runSweep(sweepSpec{
		name: "utilization-table",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(cells), func(k int) {
		n := cfg.Ns[cells[k].n]
		factor := cfg.Factors[cells[k].factorIdx]
		gauss := model.LongFlowGaussian{N: n, BDP: float64(bdp)}
		sqrtRule := float64(bdp) / math.Sqrt(float64(n))
		buffer := int(math.Max(1, math.Round(factor*sqrtRule)))
		run := LongLivedConfig{
			Seed:            cfg.Seed + int64(n)*100 + int64(factor*10),
			N:               n,
			BottleneckRate:  cfg.BottleneckRate,
			BottleneckDelay: cfg.BottleneckDelay,
			RTTMin:          cfg.RTTMin,
			RTTMax:          cfg.RTTMax,
			SegmentSize:     cfg.SegmentSize,
			BufferPackets:   buffer,
			UseRED:          cfg.UseRED,
			Warmup:          cfg.Warmup,
			Measure:         cfg.Measure,
			Env:             cfg.pointEnv(),
		}
		if cellRegs != nil {
			run.Metrics = cellRegs[k]
		}
		r := RunLongLived(run)
		rows[k] = UtilizationRow{
			N: n, Factor: factor, Packets: buffer,
			RAMMbit:   float64(buffer) * float64(cfg.SegmentSize.Bits()) / 1e6,
			ModelUtil: gauss.Utilization(float64(buffer)),
			SimUtil:   r.Utilization,
			LossRate:  r.LossRate,
		}
	})
	for k := range cellRegs {
		if rows[k].N == 0 {
			continue // cell never ran (cancelled sweep)
		}
		cfg.Metrics.Merge(fmt.Sprintf("n=%d,factor=%g", rows[k].N, rows[k].Factor), cellRegs[k])
	}
	return rows
}

// ProductionConfig reproduces Fig. 11: the Stanford dormitory experiment.
// The paper throttled a campus router to 20 Mb/s serving an estimated 400
// concurrent flows of live traffic and measured utilization at four buffer
// sizes. We substitute a synthetic production mix: a base of long-lived
// flows plus Poisson arrivals of bounded-Pareto (heavy-tailed) short
// flows.
type ProductionConfig struct {
	Seed int64

	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize

	NLong     int     // persistent flows (bulk transfers)
	ShortLoad float64 // offered load from the heavy-tailed short flows
	Pareto    workload.ParetoSize

	Buffers []int // packets; paper: 500, 85, 65, 46

	Warmup, Measure units.Duration

	Env
}

func (c ProductionConfig) withDefaults() ProductionConfig {
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 20 * units.Mbps
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = 10 * units.Millisecond
	}
	if c.RTTMin == 0 {
		c.RTTMin = 40 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 250 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.NLong == 0 {
		c.NLong = 60
	}
	if c.ShortLoad == 0 {
		c.ShortLoad = 0.25
	}
	if c.Pareto == (workload.ParetoSize{}) {
		c.Pareto = workload.ParetoSize{Shape: 1.2, Min: 2, Max: 5000}
	}
	if len(c.Buffers) == 0 {
		c.Buffers = []int{46, 65, 85, 500}
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 60 * units.Second
	}
	return c
}

// ProductionRow is one Fig. 11 row.
type ProductionRow struct {
	Buffer          int
	SqrtRuleRatio   float64 // buffer / (RTT x C / sqrt(n_effective))
	Utilization     float64
	ModelUtil       float64
	MeanConcurrent  float64 // measured mean concurrent flows (the paper's "~400")
	AFCT            units.Duration
	ShortsCompleted int
}

// RunProduction executes the Fig. 11 experiment.
func RunProduction(cfg ProductionConfig) ProductionTable {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := float64(units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize))

	rows := make(ProductionTable, len(cfg.Buffers))
	runSweep(sweepSpec{
		name: "production",
		cfg:  cfg,
		Env:  cfg.Env,
	}, len(cfg.Buffers), func(bi int) {
		buffer := cfg.Buffers[bi]
		// The per-point key is the config narrowed to this one buffer,
		// so the same point is shared across different Buffers lists.
		cfgKey := cfg
		cfgKey.Buffers = []int{buffer}
		rows[bi] = memoRun(cfg.Cache, "production", cfgKey, cfg.Audit != nil, func() ProductionRow {
			return runProductionPoint(cfg, buffer, bdp)
		})
	})
	return rows
}

// runProductionPoint simulates one Fig. 11 buffer point.
func runProductionPoint(cfg ProductionConfig, buffer int, bdp float64) ProductionRow {
	{
		sched := sim.NewScheduler()
		rng := sim.NewRNG(cfg.Seed)
		d := topology.NewDumbbell(topology.Config{
			Sched:           sched,
			RNG:             rng.Fork(),
			BottleneckRate:  cfg.BottleneckRate,
			BottleneckDelay: cfg.BottleneckDelay,
			Buffer:          queue.PacketLimit(buffer),
			Stations:        cfg.NLong + 100,
			RTTMin:          cfg.RTTMin,
			RTTMax:          cfg.RTTMax,
			Auditor:         cfg.Audit,
		})
		workload.StartLongLived(d, cfg.NLong,
			tcp.Config{SegmentSize: cfg.SegmentSize}, rng.Fork(), cfg.Warmup/2)
		gen := workload.NewShortFlows(workload.ShortFlowConfig{
			Dumbbell: d,
			RNG:      rng.Fork(),
			Load:     cfg.ShortLoad,
			Sizes:    cfg.Pareto,
			TCP:      tcp.Config{SegmentSize: cfg.SegmentSize, MaxWindow: 43},
		})
		gen.Start()

		concurrent := trace.NewSampler(sched, "concurrent", 100*units.Millisecond,
			func() float64 { return float64(cfg.NLong + gen.Active()) })

		warmEnd := units.Epoch.Add(cfg.Warmup)
		sched.Run(warmEnd)
		busySnap := d.Bottleneck.BusyTime()
		measureEnd := warmEnd.Add(cfg.Measure)
		sched.Run(measureEnd)
		util := d.Bottleneck.Utilization(busySnap, warmEnd)
		gen.Stop()
		sched.Run(measureEnd.Add(30 * units.Second))
		afct, completed, _ := gen.AFCT(warmEnd, measureEnd)

		series := concurrent.Series().Window(cfg.Warmup.Seconds(), measureEnd.Sub(units.Epoch).Seconds())
		meanConc := 0.0
		for _, v := range series.Values {
			meanConc += v
		}
		if series.Len() > 0 {
			meanConc /= float64(series.Len())
		}

		effN := int(math.Max(1, meanConc))
		gauss := model.LongFlowGaussian{N: effN, BDP: bdp}
		return ProductionRow{
			Buffer:          buffer,
			SqrtRuleRatio:   float64(buffer) / (bdp / math.Sqrt(float64(effN))),
			Utilization:     util,
			ModelUtil:       gauss.Utilization(float64(buffer)),
			MeanConcurrent:  meanConc,
			AFCT:            afct,
			ShortsCompleted: completed,
		}
	}
}
