package bufsim

import (
	"fmt"
	"reflect"
	"testing"
)

// matrixEntryPoints wraps every public Simulate* entry point around a
// deliberately tiny scenario, so the full entry-point × option matrix
// below stays cheap enough for the ordinary test run.
var matrixEntryPoints = []struct {
	name string
	run  func(opts ...Option) any
}{
	{"Simulate", func(opts ...Option) any {
		return Simulate(Simulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			Flows: 8, BufferPackets: 20,
			RTTSpread: 20 * Millisecond,
			Warmup:    1 * Second, Measure: 2 * Second,
		}, opts...)
	}},
	{"SimulateReplicated", func(opts ...Option) any {
		return SimulateReplicated(Simulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			Flows: 8, BufferPackets: 20,
			RTTSpread: 20 * Millisecond,
			Warmup:    1 * Second, Measure: 2 * Second,
		}, 2, opts...)
	}},
	{"SimulateSingleFlow", func(opts ...Option) any {
		return SimulateSingleFlow(Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}, 1, 1, opts...)
	}},
	{"SimulateShortFlows", func(opts ...Option) any {
		return SimulateShortFlows(ShortFlowSimulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			BufferPackets: 30, Load: 0.5, FlowLength: 14,
			Warmup: 1 * Second, Measure: 2 * Second,
		}, opts...)
	}},
	{"SimulateMix", func(opts ...Option) any {
		return SimulateMix(MixSimulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			LongFlows: 4, ShortLoad: 0.2, BufferPackets: 30,
			RTTSpread: 20 * Millisecond,
			Warmup:    1 * Second, Measure: 2 * Second,
		}, opts...)
	}},
	{"SimulateProfile", func(opts ...Option) any {
		return SimulateProfile(ProfileSimulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			BufferPackets: 30, Stations: 10,
			Workload: matrixProfileWorkload(),
			Warmup:   1 * Second, Measure: 3 * Second, Drain: 10 * Second,
		}, opts...)
	}},
	{"SimulateTrace", func(opts ...Option) any {
		return SimulateTrace(TraceSimulation{
			Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
			Flows: []TraceFlow{
				{Start: 0, Size: 10},
				{Start: 100 * Millisecond, Size: 30},
				{Start: 300 * Millisecond, Size: 5},
			},
			BufferPackets: 30,
		}, opts...)
	}},
}

// matrixProfileWorkload is the tiny time-varying workload the matrix
// drives SimulateProfile with: the flash-crowd shape compressed 12x so
// the spike lands inside the short measurement window.
func matrixProfileWorkload() Workload {
	p, err := FlashCrowdProfile.Profile().Compress(12)
	if err != nil {
		panic(err)
	}
	w, err := ProfileWorkload(p.ScaleTo(20, 4), GeometricSize(10), 16)
	if err != nil {
		panic(err)
	}
	return w
}

// TestOptionsMatrix runs every public entry point under every functional
// option, per the matrix in the package documentation: each combination
// must run (not just compile), observers must not perturb the result,
// and a cached re-run must hit and replay the result bit-identically.
func TestOptionsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, ep := range matrixEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			base := ep.run()

			options := []struct {
				name string
				opt  Option
				// observer options must leave the result bit-identical
				// to the optionless run
				observer bool
			}{
				{"WithRED", WithRED(true), false},
				{"WithPacing", WithPacing(true), false},
				{"WithDelayedACK", WithDelayedACK(true), false},
				{"WithMetrics", WithMetrics(NewRegistry()), true},
				{"WithAudit", WithAudit(NewAuditor()), true},
			}
			for _, o := range options {
				t.Run(o.name, func(t *testing.T) {
					got := ep.run(o.opt)
					if o.observer && !reflect.DeepEqual(got, base) {
						t.Errorf("observer option perturbed the result:\ngot  %+v\nbase %+v", got, base)
					}
				})
			}

			t.Run("WithCongestionControl", func(t *testing.T) {
				// Reno is the zero Variant, so selecting it explicitly
				// must reproduce the optionless run. Every other
				// registered variant must run, and at least one must
				// change the result.
				changed := false
				for _, name := range VariantNames() {
					v, err := ParseVariant(name)
					if err != nil {
						t.Fatal(err)
					}
					got := ep.run(WithCongestionControl(v))
					if v == Reno {
						if !reflect.DeepEqual(got, base) {
							t.Errorf("explicit Reno diverged from the default:\ngot  %+v\nbase %+v", got, base)
						}
						continue
					}
					changed = changed || !reflect.DeepEqual(got, base)
				}
				if !changed {
					t.Error("no congestion-control family changed the result")
				}
			})

			t.Run("WithCache", func(t *testing.T) {
				cache, err := OpenCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cold := ep.run(WithCacheStore(cache))
				if !reflect.DeepEqual(cold, base) {
					t.Errorf("caching perturbed the result:\ngot  %+v\nbase %+v", cold, base)
				}
				before := cache.Stats()
				warm := ep.run(WithCacheStore(cache))
				if hits := cache.Stats().Hits - before.Hits; hits == 0 {
					t.Error("identical rerun missed the cache")
				}
				if !reflect.DeepEqual(warm, cold) {
					t.Errorf("cache replay differs from the computed result:\nwarm %+v\ncold %+v", warm, cold)
				}
			})
		})
	}
}

// TestWithWorkloadMatrix drives SimulateProfile through WithWorkload
// for every workload family, each crossed with the observer and policy
// options: audited runs must be clean, metrics must not perturb,
// WithRED must change the scenario, and cached runs must replay
// bit-identically with the workload participating in the key.
func TestWithWorkloadMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := ProfileSimulation{
		Seed: 2, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
		BufferPackets: 30, Stations: 10,
		Warmup: 1 * Second, Measure: 3 * Second, Drain: 10 * Second,
	}
	workloads := []struct {
		name string
		w    Workload
	}{
		{"poisson", PoissonWorkload(0.5, FixedSize(14), 16)},
		{"sessions", SessionWorkload(6, GeometricSize(10), 200*Millisecond, 16)},
		{"trace", TraceWorkload([]TraceFlow{
			{Start: 0, Size: 10}, {Start: 500 * Millisecond, Size: 30}, {Start: 1 * Second, Size: 5},
		}, 16)},
		{"profile", matrixProfileWorkload()},
	}
	keys := make(map[string]ProfileResult)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			run := func(opts ...Option) ProfileResult {
				return SimulateProfile(base, append([]Option{WithWorkload(wl.w)}, opts...)...)
			}
			plain := run()
			if plain.Generated == 0 {
				t.Fatal("workload generated no flows")
			}

			aud := NewAuditor()
			if got := run(WithAudit(aud)); got != plain {
				t.Errorf("audit perturbed the result:\ngot  %+v\nbase %+v", got, plain)
			}
			if aud.Count() > 0 {
				t.Fatalf("audit violations:\n%s", aud)
			}
			if got := run(WithMetrics(NewRegistry())); got != plain {
				t.Errorf("metrics perturbed the result:\ngot  %+v\nbase %+v", got, plain)
			}
			if red := run(WithRED(true)); red == plain {
				t.Error("WithRED did not change the scenario")
			}

			cold := run(WithCacheStore(cache))
			if cold != plain {
				t.Errorf("caching perturbed the result:\ngot  %+v\nbase %+v", cold, plain)
			}
			before := cache.Stats()
			if warm := run(WithCacheStore(cache)); warm != cold {
				t.Errorf("cache replay differs:\nwarm %+v\ncold %+v", warm, cold)
			}
			if cache.Stats().Hits == before.Hits {
				t.Error("identical rerun missed the cache")
			}
			keys[wl.name] = cold
		})
	}
	// Different workloads over the same scenario must produce different
	// results — i.e. the workload really participates in the cache key
	// and the simulation, rather than all mapping to one run.
	seen := make(map[ProfileResult]string)
	for name, res := range keys {
		if other, dup := seen[res]; dup {
			t.Errorf("workloads %q and %q produced identical results", name, other)
		}
		seen[res] = name
	}
}

// TestVariantSwitchMatrix runs every registered congestion-control
// variant under every combination of the behavioural switches (pacing,
// delayed ACK, RED), each under the conservation-law auditor and each
// cached then replayed: the pluggable-CC redesign must compose with the
// whole option surface, not just run standalone.
func TestVariantSwitchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulation runs")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range VariantNames() {
		v, err := ParseVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 8; mask++ {
			paced, delack, red := mask&1 != 0, mask&2 != 0, mask&4 != 0
			label := fmt.Sprintf("%s/paced=%v,delack=%v,red=%v", name, paced, delack, red)
			t.Run(label, func(t *testing.T) {
				run := func(opts ...Option) SimulationResult {
					return Simulate(Simulation{
						Seed: 3, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond},
						Flows: 6, BufferPackets: 25,
						RTTSpread: 20 * Millisecond,
						Warmup:    1 * Second, Measure: 2 * Second,
					}, append([]Option{
						WithCongestionControl(v), WithPacing(paced),
						WithDelayedACK(delack), WithRED(red),
					}, opts...)...)
				}
				aud := NewAuditor()
				base := run(WithAudit(aud))
				if aud.Count() > 0 {
					t.Fatalf("audit violations:\n%s", aud)
				}
				if base.Utilization <= 0 || base.Utilization > 1.0001 {
					t.Errorf("utilization = %v", base.Utilization)
				}
				if cold := run(WithCacheStore(cache)); !reflect.DeepEqual(cold, base) {
					t.Errorf("cached run diverged:\ncold %+v\nbase %+v", cold, base)
				}
				if warm := run(WithCacheStore(cache)); !reflect.DeepEqual(warm, base) {
					t.Errorf("cache replay diverged:\nwarm %+v\nbase %+v", warm, base)
				}
			})
		}
	}
}
