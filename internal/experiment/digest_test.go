package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"bufsim/internal/runcache"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// resultDigest canonicalizes a result via JSON and hashes it. Every field
// that reaches the digest is either an integer count, a units quantity
// (int64 nanoseconds) or a float64 produced by a deterministic sequence of
// operations, so the digest is bit-stable across runs on one platform and
// across kernel implementations that preserve event ordering.
func resultDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenDigestCases is shared by TestGoldenDigests (cache nil — plain
// simulation) and TestGoldenDigestsCached (cold store, then warm replay):
// the pinned digests must come out identical on all three paths.
var goldenDigestCases = []struct {
	name string
	want string
	run  func(cache *runcache.Store) any
}{
	{
		name: "long_lived_reno",
		want: "3d4617a738c64df2e222ca3ca2333300a0ffebd9c2be8ebdcde13a475a8d6c98",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Seed: 7, N: 24, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 40,
				Warmup:        4 * units.Second, Measure: 8 * units.Second,
				// These digests were recorded when MeanQueue's
				// integration started at t=0; keep that epoch.
				MeanQueueIncludesWarmup: true,
				Env:                     Env{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_sack_paced_delack",
		want: "b5a656317af17dfa1ac4b229cd99e10ea5939682f5aef0ead952a59d21b89d47",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Seed: 11, N: 16, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 25, Variant: 3, /* Sack */
				Paced: true, DelayedAck: true,
				Warmup: 4 * units.Second, Measure: 8 * units.Second,
				MeanQueueIncludesWarmup: true,
				Env:                     Env{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_red_ecn",
		want: "add72eca42d9e202e691005e4425cd7e85da6dbbe0048ec004e420a7366c35d1",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Seed: 3, N: 20, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 30, UseRED: true, ECN: true,
				Warmup: 4 * units.Second, Measure: 8 * units.Second,
				MeanQueueIncludesWarmup: true,
				Env:                     Env{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_cubic",
		want: "ab78bc44d4975a329be3f3ec6741da5db68ee9fab99884d6ac46f400277c002a",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Seed: 13, N: 24, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 40, Variant: 4, /* Cubic */
				Warmup: 4 * units.Second, Measure: 8 * units.Second,
				Env: Env{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_bbr",
		want: "0297c3f652b500fdf658e2897ab901e0bd099c9f9495a931b795e393fc53c5fd",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Seed: 17, N: 16, BottleneckRate: 20 * units.Mbps,
				BufferPackets: 30, Variant: 5, /* BBR */
				DelayedAck: true,
				Warmup:     4 * units.Second, Measure: 8 * units.Second,
				Env: Env{Cache: cache},
			})
		},
	},
	{
		name: "single_flow_sawtooth",
		want: "b944849af08fc27334a6d438a21a7c1c3a3888914de021470ff0720238a5d273",
		run: func(cache *runcache.Store) any {
			return RunSingleFlow(SingleFlowConfig{
				BottleneckRate: 10 * units.Mbps, BufferFactor: 1,
				Warmup: 30 * units.Second, Measure: 40 * units.Second,
				Env: Env{Cache: cache},
			})
		},
	},
	{
		name: "short_flows",
		want: "5d4523c64431bd9c5764512cf63f90d15d96c3c95ac360b9ab1651a9c012d714",
		run: func(cache *runcache.Store) any {
			afct, completed, censored := ShortFlowAFCT(ShortFlowRunConfig{
				Seed: 5, Rate: 20 * units.Mbps, Load: 0.7,
				FlowLength: 14, BufferPackets: 50,
				Warmup: 4 * units.Second, Measure: 10 * units.Second,
				Env: Env{Cache: cache},
			})
			return map[string]any{"afct": afct, "completed": completed, "censored": censored}
		},
	},
	{
		name: "mixed_traffic",
		want: "b3b8bf33498a7f8cd472b6ca0dc6b242c644084b8efb24c54fcb1fc8978fe95f",
		run: func(cache *runcache.Store) any {
			return RunMixed(MixedConfig{
				Seed: 9, NLong: 12, ShortLoad: 0.15,
				Sizes:          workload.GeometricSize(10),
				BottleneckRate: 20 * units.Mbps, BufferPackets: 35,
				Warmup: 5 * units.Second, Measure: 10 * units.Second,
				MeanQueueIncludesWarmup: true,
				Env:                     Env{Cache: cache},
			})
		},
	},
	{
		name: "profile_flashcrowd",
		want: "fa7d5874c5551439e82a093a0928c15f5e464cf2d2bd12a30aaa92e7cf1581e7",
		run: func(cache *runcache.Store) any {
			prof, err := profile.FlashCrowd.Profile().Compress(4)
			if err != nil {
				panic(err)
			}
			return RunFlashCrowd(FlashCrowdConfig{
				Seed: 21, BottleneckRate: 20 * units.Mbps,
				Stations: 20, Profile: prof, PeakFlows: 8,
				Buffers: []int{25, 100},
				Warmup:  2 * units.Second, Drain: 20 * units.Second,
				Env: Env{Cache: cache},
			})
		},
	},
	{
		name: "trace_replay",
		want: "7290a2b5fb47831db7e58c781fe5fffa64b33d509eb6b618a7329c14fd81c949",
		run: func(cache *runcache.Store) any {
			flows := make([]workload.FlowSpec, 0, 60)
			for i := 0; i < 60; i++ {
				flows = append(flows, workload.FlowSpec{
					Start: units.Duration(i) * 200 * units.Millisecond,
					Size:  int64(2 + i%37),
				})
			}
			return RunTrace(TraceConfig{
				Seed: 2, Flows: flows,
				BottleneckRate: 10 * units.Mbps, BufferPackets: 30,
				Drain: 20 * units.Second,
				Env:   Env{Cache: cache},
			})
		},
	},
}

// TestGoldenDigests pins the exact results of a scaled-down slice of the
// experiment suite. These digests were recorded with the pre-pooling
// container/heap kernel; the pooled 4-ary-heap kernel must reproduce them
// bit for bit — that is the determinism contract of the rewrite. If a
// deliberate behaviour change invalidates them, re-record by copying the
// digests the failing run prints.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			got := resultDigest(t, tc.run(nil))
			if got != tc.want {
				t.Errorf("digest = %s, want %s\n(a digest change means the kernel no longer reproduces the pre-rewrite packet schedule)", got, tc.want)
			}
		})
	}
}

// TestGoldenDigestsCached re-runs the pinned cases against a cache: the
// cold pass (simulate + store) and the warm pass (replay from disk) must
// both reproduce the exact digests TestGoldenDigests pins without one —
// the caching layer is not allowed to perturb a single bit.
func TestGoldenDigestsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			before := store.Stats()
			if got := resultDigest(t, tc.run(store)); got != tc.want {
				t.Errorf("cold cached digest = %s, want %s", got, tc.want)
			}
			if got := resultDigest(t, tc.run(store)); got != tc.want {
				t.Errorf("warm cached digest = %s, want %s", got, tc.want)
			}
			after := store.Stats()
			if after.Hits == before.Hits {
				t.Errorf("second run did not hit the cache (hits %d -> %d)", before.Hits, after.Hits)
			}
			if after.Puts == before.Puts {
				t.Errorf("first run did not store its result (puts %d -> %d)", before.Puts, after.Puts)
			}
		})
	}
}
