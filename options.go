package bufsim

import (
	"fmt"
	"sync"

	"bufsim/internal/audit"
	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// Registry collects simulator telemetry: counters, gauges and histograms
// published by the scheduler, the bottleneck queue and the TCP senders.
// Attach one to a run with WithMetrics, then Snapshot or WriteJSON it.
// Telemetry only observes — a run produces bit-identical packets whether
// or not a Registry is attached.
type Registry = metrics.Registry

// NewRegistry returns an empty telemetry registry for WithMetrics.
func NewRegistry() *Registry { return metrics.New() }

// Auditor collects conservation-law violations: every queue, link, TCP
// endpoint and the event clock cross-check their own accounting against
// independent shadow counters while the simulation runs. Attach one to a
// run with WithAudit, then inspect Count, Violations or Err. Auditing
// only observes — a run produces bit-identical results whether or not an
// Auditor is attached.
type Auditor = audit.Auditor

// Violation is one invariant failure recorded by an Auditor, stamped
// with the simulated time at which it was detected.
type Violation = audit.Violation

// NewAuditor returns an empty auditor for WithAudit. OnViolation (see
// audit.OnViolation) may be passed to observe failures as they happen;
// by default they accumulate for inspection after the run.
func NewAuditor(opts ...audit.Option) *Auditor { return audit.New(opts...) }

// Cache is a content-addressed store of simulation results, keyed by a
// canonical digest of the run's full configuration. Attach one with
// WithCache or WithCacheStore: a run whose exact configuration has been
// simulated before returns the stored result instead of simulating
// again; a cold run simulates and stores. The cache only observes —
// cached and fresh results are bit-identical — and entries never expire:
// they are invalidated wholesale when the simulator's digest salt
// changes (see internal/runcache).
type Cache = runcache.Store

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) { return runcache.Open(dir) }

// openedCaches dedupes WithCache stores per directory so repeated calls
// share hit/miss statistics and a single failure mode.
var openedCaches sync.Map // dir -> *Cache

// Option adjusts a Simulate* run beyond what its configuration struct
// carries. Options always win over the corresponding config field, so
// callers can hold one base config and vary a switch per run:
//
//	bufsim.Simulate(cfg, bufsim.WithCongestionControl(bufsim.Sack), bufsim.WithPacing(true))
//
// The zero set of options leaves the config untouched; existing callers
// that pass only a config struct are unaffected.
type Option func(*options)

type options struct {
	// env carries WithMetrics, WithAudit, WithCache and WithParallelism
	// into the experiment config every entry point lowers to.
	env experiment.Env

	variant    *Variant
	paced      *bool
	delayedAck *bool
	red        *bool
	workload   Workload
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// overrideSwitches writes the congestion-control and queue switches the
// options carry over the config fields they shadow. A nil target is a
// switch the caller's config does not have.
func (o options) overrideSwitches(variant *Variant, paced, delayedAck, red *bool) {
	if o.variant != nil && variant != nil {
		*variant = *o.variant
	}
	if o.paced != nil && paced != nil {
		*paced = *o.paced
	}
	if o.delayedAck != nil && delayedAck != nil {
		*delayedAck = *o.delayedAck
	}
	if o.red != nil && red != nil {
		*red = *o.red
	}
}

// WithCongestionControl selects the congestion-control family the
// scenario's senders run: the classic window-based variants (Reno,
// Tahoe, NewReno, Sack) or the modern families (Cubic, BBR). Note the
// zero Variant is Reno, so an unset config field and an explicit
// WithCongestionControl(Reno) mean the same thing — configs round-trip
// through JSON without a "was it set" sentinel.
func WithCongestionControl(v Variant) Option {
	return func(o *options) { o.variant = &v }
}

// WithPacing spreads each sender's transmissions across the RTT instead
// of ACK-clocked back-to-back bursts.
func WithPacing(on bool) Option {
	return func(o *options) { o.paced = &on }
}

// WithDelayedACK acknowledges every second segment, as modern receivers
// do, instead of every segment.
func WithDelayedACK(on bool) Option {
	return func(o *options) { o.delayedAck = &on }
}

// WithRED switches the bottleneck from drop-tail to Random Early
// Detection sized to the scenario's buffer. Every entry point but
// SimulateAdversary honours it; scenarios whose buffer is unlimited
// (BufferPackets 0) must set a positive buffer to use it.
func WithRED(on bool) Option {
	return func(o *options) { o.red = &on }
}

// WithParallelism bounds how many independent simulations run at once in
// the entry points that fan out over multiple runs (SimulateReplicated).
// Zero or negative means the machine's parallelism. Every simulation owns
// its scheduler and RNG streams, so results are bit-identical at any
// setting; only wall-clock time changes. Single-run entry points ignore
// it — one simulation is always one goroutine.
func WithParallelism(n int) Option {
	return func(o *options) { o.env.Parallelism = n }
}

// WithWorkload overrides the traffic driving a SimulateProfile run with
// any Workload — a time-varying ProfileWorkload, a TraceWorkload, a
// SessionWorkload or the stationary PoissonWorkload — so one base
// scenario can grid over traffic models the way WithCongestionControl
// grids over congestion control. Workloads are pure data: with WithCache
// set, the workload participates in the cache key like any other config
// field.
// Only SimulateProfile honours it; the legacy entry points' traffic is
// part of their scenario shape.
func WithWorkload(w Workload) Option {
	return func(o *options) { o.workload = w }
}

// WithMetrics attaches a telemetry registry to the run. After the run
// returns, reg holds the scheduler, queue and TCP instruments
// (reg.WriteJSON dumps them). Telemetry never perturbs the simulation:
// the same seed yields identical packets with or without it.
func WithMetrics(reg *Registry) Option {
	return func(o *options) { o.env.Metrics = reg }
}

// WithAudit runs the simulation under the conservation-law checker: every
// queue, link, TCP endpoint and the event clock verify their accounting
// invariants as events execute, recording violations into aud. A clean
// run leaves aud.Count() at zero. Auditing never perturbs the
// simulation: the same seed yields identical results with or without it.
// The same Auditor may be shared by concurrent runs (SimulateReplicated);
// it is concurrency-safe.
func WithAudit(aud *Auditor) Option {
	return func(o *options) { o.env.Audit = aud }
}

// WithCache memoizes the run in a content-addressed result cache rooted
// at dir (created if needed): if this exact configuration — every field,
// seed and option included — has been simulated into dir before, the
// stored result is returned without simulating. Stores are shared per
// directory across calls. WithCache panics if dir cannot be created;
// use OpenCache plus WithCacheStore to handle the error instead.
//
// Combining WithCache with WithMetrics or WithAudit always simulates
// (telemetry and audit observe the simulation itself), but still stores
// the result for later cache hits.
func WithCache(dir string) Option {
	return func(o *options) {
		if c, ok := openedCaches.Load(dir); ok {
			o.env.Cache = c.(*Cache)
			return
		}
		c, err := runcache.Open(dir)
		if err != nil {
			panic(fmt.Sprintf("bufsim: WithCache(%q): %v", dir, err))
		}
		actual, _ := openedCaches.LoadOrStore(dir, c)
		o.env.Cache = actual.(*Cache)
	}
}

// WithCacheStore is WithCache for a store the caller opened (or
// configured — e.g. verification sampling via SetVerifySample) itself.
func WithCacheStore(c *Cache) Option {
	return func(o *options) { o.env.Cache = c }
}
