package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// The tests in this file once compared a sharded kernel with the
// sequential one. The kernel is sequential only now, and "shards=n" in a
// case name is a label, not a kernel setting: each case runs one copy of
// its scenario in parallel with the scenario's other cases, so the copies
// execute concurrently and any state shared between simulations — a
// package-level pool, ring, slab or RNG — perturbs at least one digest.

// shardSweep labels the parallel copies of each pinned scenario.
var shardSweep = []int{1, 2, 4, 8}

// TestShardedMatchesUnsharded requires every pinned-digest scenario to
// reproduce its golden digest bit for bit in each of its concurrent
// copies. The digests cover every result field (throughputs, queue
// occupancies, AFCTs, full time series), so a single reordered packet in
// any copy fails the test.
func TestShardedMatchesUnsharded(t *testing.T) {
	counts := shardSweep
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range counts {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					t.Parallel()
					if got := resultDigest(t, tc.run(nil)); got != tc.want {
						t.Errorf("digest = %s, want %s\n(concurrent simulations share mutable state)", got, tc.want)
					}
				})
			}
		})
	}
}

// TestShardedMatchesUnshardedRandomized widens the check past the pinned
// scenarios: randomized long-lived configs, each digested once alone,
// must produce that digest in every concurrent copy. The configs are
// drawn from a fixed seed so failures reproduce.
func TestShardedMatchesUnshardedRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	rng := rand.New(rand.NewSource(20040814)) // the paper's publication month
	for i := 0; i < 4; i++ {
		cfg := LongLivedConfig{
			Seed:           rng.Int63n(1 << 20),
			N:              2 + rng.Intn(30),
			BottleneckRate: units.BitRate(5+rng.Intn(20)) * units.Mbps,
			BufferPackets:  5 + rng.Intn(60),
			Variant:        [...]tcp.Variant{0, 3, 4, 5}[rng.Intn(4)],
			DelayedAck:     rng.Intn(2) == 0,
			Paced:          rng.Intn(2) == 0,
			Warmup:         2 * units.Second,
			Measure:        4 * units.Second,
		}
		want := resultDigest(t, RunLongLived(cfg))
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			for _, n := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					t.Parallel()
					if got := resultDigest(t, RunLongLived(cfg)); got != want {
						t.Errorf("digest = %s, want %s (config %+v)", got, want, cfg)
					}
				})
			}
		})
	}
}

// TestShardedAuditZeroViolations runs concurrent copies of one scenario,
// each under its own conservation-law auditor: concurrency must not
// perturb a single invariant — clocks stay monotone, queues conserve
// packets, TCP windows balance.
func TestShardedAuditZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			aud := audit.New()
			RunLongLived(LongLivedConfig{
				Seed: 7, N: 24, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 40,
				Warmup:        4 * units.Second, Measure: 8 * units.Second,
				Env: Env{Audit: aud},
			})
			if vs := aud.Violations(); len(vs) != 0 {
				t.Fatalf("audit reported %d violations; first: %s", len(vs), vs[0])
			}
		})
	}
}
