package bufsim

import (
	"fmt"
	"io"

	"bufsim/internal/experiment"
	"bufsim/internal/tcp"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// Workload is a declarative traffic description — pure data that the
// simulator binds onto its topology deterministically, so the same seed
// always produces the same flow schedule. The constructors below build
// the four families: PoissonWorkload (stationary short flows),
// SessionWorkload (closed-loop sessions), TraceWorkload (replay a
// recorded trace) and ProfileWorkload (time-varying traffic from a
// Profile). Pass one in ProfileSimulation.Workload or override any
// entry's config with WithWorkload.
type Workload = workload.Source

// SizeDist is a flow-length distribution in segments; see Pareto,
// FixedSize and GeometricSize.
type SizeDist = workload.SizeDist

// FixedSize is the degenerate distribution: every flow is exactly N
// segments.
type FixedSize = workload.FixedSize

// GeometricSize draws geometrically distributed flow lengths with the
// given mean.
type GeometricSize = workload.GeometricSize

// Profile describes time-varying traffic: piecewise-linear control
// points for the short-flow arrival rate (flows/sec) and the long-lived
// flow count, interpolated between points and clamped outside them.
// Profiles compose — ScaleArrival, ScalePopulation, ScaleTo, Compress
// and profile.Sum — and validate with clear errors (negative rates,
// out-of-order control points, zero-duration segments).
type Profile = profile.Profile

// ProfilePoint is one control point of a profile curve: value V holds
// at offset T from the profile's start.
type ProfilePoint = profile.Point

// ProfileCurve is a piecewise-linear function of time.
type ProfileCurve = profile.Curve

// ProfilePreset names a built-in profile shape; see ProfileNames. Preset
// curves are normalized to peak 1.0 on both axes — scale them with
// Profile.ScaleTo.
type ProfilePreset = profile.Preset

// Built-in profile shapes.
const (
	// ConstantProfile is the stationary baseline.
	ConstantProfile = profile.Constant
	// DiurnalProfile is a 24-hour swing (compress it to simulate faster).
	DiurnalProfile = profile.Diurnal
	// FlashCrowdProfile spikes 10x in seconds and decays.
	FlashCrowdProfile = profile.FlashCrowd
	// SteppedRampProfile climbs four load plateaus.
	SteppedRampProfile = profile.SteppedRamp
	// DrainProfile dips to 5% mid-run and recovers.
	DrainProfile = profile.Drain
)

// ParseProfile parses a preset name — "constant", "diurnal",
// "flashcrowd", "step" or "drain", case-insensitive, with aliases like
// "flash-crowd" and "maintenance". The empty string parses as
// ConstantProfile, the zero value. ProfilePreset also implements
// encoding.TextMarshaler/TextUnmarshaler, so JSON configs carry names.
func ParseProfile(s string) (ProfilePreset, error) { return profile.ParseProfile(s) }

// ProfileNames lists the canonical names of every built-in profile
// shape, in declaration order.
func ProfileNames() []string { return profile.ProfileNames() }

// LoadProfile reads a JSON profile description:
//
//	{
//	  "name": "launch-day",
//	  "arrival":    [{"t": "0s", "v": 10}, {"t": "30s", "v": 100}],
//	  "population": [{"t": "0s", "v": 20}],
//	  "compress": 2.0
//	}
//
// where "t" is a duration string ("30s", "1500ms") or a number of
// seconds. The loaded profile is validated.
func LoadProfile(r io.Reader) (Profile, error) { return profile.Load(r) }

// ReadFlows reads a recorded flow trace for TraceWorkload/SimulateTrace,
// sniffing the format: JSON ([{"start": "1.5s", "size": 30}, ...]) or
// the legacy start_seconds,size_segments CSV. Records must be ordered
// by start time; out-of-order rows are an error.
func ReadFlows(r io.Reader) ([]TraceFlow, error) { return workload.ReadFlows(r) }

// ArrivalRate converts an offered load (fraction of the link, in (0,1))
// into the short-flow arrival rate in flows/sec that offers it, given
// the link and a flow-size distribution — the bridge from "85% load"
// scenario language to a Profile's absolute arrival curve.
func ArrivalRate(load float64, link Link, sizes SizeDist) float64 {
	return workload.ArrivalRateForLoad(load, link.Rate, link.segment(), sizes)
}

// PoissonWorkload is the stationary workload: Poisson arrivals of
// finite flows at offered load (fraction of the bottleneck, in (0,1)),
// sizes drawn from the given distribution, senders capped at maxWindow
// segments (0 means the TCP default). Behind ProfileSimulation it
// reproduces SimulateShortFlows exactly.
func PoissonWorkload(load float64, sizes SizeDist, maxWindow int) Workload {
	return workload.PoissonSource{
		Load:  load,
		Sizes: sizes,
		TCP:   tcp.Config{MaxWindow: maxWindow},
	}
}

// SessionWorkload is the closed-loop Harpoon-style workload: a fixed
// population of sessions looping "transfer a file, think, repeat", with
// file sizes from the distribution and exponential thinks of the given
// mean.
func SessionWorkload(sessions int, sizes SizeDist, meanThink Duration, maxWindow int) Workload {
	return workload.SessionSource{
		Sessions:  sessions,
		Sizes:     sizes,
		MeanThink: meanThink,
		TCP:       tcp.Config{MaxWindow: maxWindow},
	}
}

// TraceWorkload replays recorded flows (see ReadFlows) at their
// recorded start offsets, anchored to the simulation start.
func TraceWorkload(flows []TraceFlow, maxWindow int) Workload {
	return workload.TraceSource{
		Flows: flows,
		TCP:   tcp.Config{MaxWindow: maxWindow},
	}
}

// ProfileWorkload compiles a time-varying profile into a workload:
// short flows arrive as a non-homogeneous Poisson process following the
// arrival curve (sizes from the distribution), and long-lived flows
// start and stop so the live count tracks the population curve. The
// schedule is deterministic per seed. The profile must be in absolute
// units (flows/sec and flow counts) — scale presets with ScaleTo first.
func ProfileWorkload(p Profile, sizes SizeDist, maxWindow int) (Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Arrival.Max() > 0 && sizes == nil {
		return nil, fmt.Errorf("bufsim: ProfileWorkload with an arrival curve requires a size distribution")
	}
	return profile.Source{
		Profile: p,
		Sizes:   sizes,
		TCP:     tcp.Config{MaxWindow: maxWindow},
		LongTCP: tcp.Config{},
	}, nil
}

// ProfileSimulation configures SimulateProfile: any Workload — a
// time-varying profile, a trace, sessions, or the stationary Poisson
// source — over a single bottleneck with a given buffer. Station RTTs
// spread ±40% around Link.RTT, as in SimulateShortFlows.
type ProfileSimulation struct {
	Seed int64

	Link          Link
	BufferPackets int // 0 = unlimited
	Stations      int // access links sharing the bottleneck (default 50)

	// Workload drives the traffic; WithWorkload overrides it.
	Workload Workload

	// RED switches the bottleneck to Random Early Detection sized to
	// BufferPackets (which must then be positive).
	RED bool

	Warmup, Measure Duration
	// Drain is how long after the measurement window flows may finish
	// before being counted censored (default 30s).
	Drain Duration
}

// ProfileResult summarizes SimulateProfile: the bottleneck's view of
// the traffic (utilization, loss, queue occupancy) and the workload's
// (active-flow trajectory n(t), flow completion times).
type ProfileResult struct {
	Utilization float64
	LossRate    float64
	MeanQueue   float64
	PeakQueue   int
	MeanActive  float64
	PeakActive  float64
	Generated   int64
	AFCT        Duration
	Completed   int
	Censored    int
}

// SimulateProfile runs a workload scenario — the unified entry point
// behind which the stationary, session, trace and profile traffic
// models all sit. A PoissonWorkload here reproduces SimulateShortFlows'
// AFCT exactly; a ProfileWorkload opens the time-varying axis (flash
// crowds, diurnal swings) the fixed-n entry points cannot express.
func SimulateProfile(cfg ProfileSimulation, opts ...Option) ProfileResult {
	o := applyOptions(opts)
	w := cfg.Workload
	if o.workload != nil {
		w = o.workload
	}
	if w == nil {
		panic("bufsim: ProfileSimulation requires a Workload (config field or WithWorkload)")
	}
	run := experiment.ProfileRunConfig{
		Seed:          cfg.Seed,
		Rate:          cfg.Link.Rate,
		MeanRTT:       cfg.Link.RTT,
		SegmentSize:   cfg.Link.segment(),
		BufferPackets: cfg.BufferPackets,
		Source:        overrideWorkloadTCP(w, o),
		Stations:      cfg.Stations,
		UseRED:        cfg.RED,
		Warmup:        cfg.Warmup,
		Measure:       cfg.Measure,
		Drain:         cfg.Drain,
		Metrics:       o.metrics,
		Audit:         o.audit,
		Cache:         o.cache,
	}
	if o.red != nil {
		run.UseRED = *o.red
	}
	res := experiment.RunProfile(run)
	return ProfileResult{
		Utilization: res.Utilization,
		LossRate:    res.LossRate,
		MeanQueue:   res.MeanQueue,
		PeakQueue:   res.PeakQueue,
		MeanActive:  res.MeanActive,
		PeakActive:  res.PeakActive,
		Generated:   res.Generated,
		AFCT:        res.AFCT,
		Completed:   res.Completed,
		Censored:    res.Censored,
	}
}

// overrideWorkloadTCP rewrites a known workload's TCP templates from
// the congestion-control options, so WithCongestionControl, WithPacing
// and WithDelayedACK compose with SimulateProfile the way they do with
// every other entry point. Unknown Source implementations pass through
// untouched.
func overrideWorkloadTCP(w Workload, o options) Workload {
	if o.variant == nil && o.paced == nil && o.delayedAck == nil {
		return w
	}
	apply := func(c tcp.Config) tcp.Config {
		if o.variant != nil {
			c.Variant = *o.variant
		}
		if o.paced != nil {
			c.Paced = *o.paced
		}
		if o.delayedAck != nil {
			c.DelayedAck = *o.delayedAck
		}
		return c
	}
	switch s := w.(type) {
	case workload.PoissonSource:
		s.TCP = apply(s.TCP)
		return s
	case workload.SessionSource:
		s.TCP = apply(s.TCP)
		return s
	case workload.TraceSource:
		s.TCP = apply(s.TCP)
		return s
	case profile.Source:
		s.TCP = apply(s.TCP)
		s.LongTCP = apply(s.LongTCP)
		return s
	default:
		return w
	}
}
