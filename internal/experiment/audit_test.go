package experiment

import (
	"math/rand"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// TestRandomScenariosUnderAudit is the randomized end-to-end property
// test: small simulations with randomly drawn parameters across the
// discipline/variant/feature matrix must complete with zero invariant
// violations. The generator is seeded, so a failure reproduces exactly;
// the failing seed and config are in the test output.
func TestRandomScenariosUnderAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized scenario sweep in -short mode")
	}
	rng := rand.New(rand.NewSource(20260805))
	variants := []tcp.Variant{tcp.Reno, tcp.Tahoe, tcp.NewReno, tcp.Sack}
	for i := 0; i < 12; i++ {
		aud := audit.New()
		cfg := LongLivedConfig{
			Seed:           rng.Int63n(1 << 30),
			N:              2 + rng.Intn(12),
			BottleneckRate: units.BitRate(5+rng.Intn(20)) * units.Mbps,
			BufferPackets:  4 + rng.Intn(60),
			Warmup:         units.Duration(1+rng.Intn(2)) * units.Second,
			Measure:        units.Duration(2+rng.Intn(3)) * units.Second,
			Variant:        variants[rng.Intn(len(variants))],
			Paced:          rng.Intn(3) == 0,
			DelayedAck:     rng.Intn(3) == 0,
			Env:            Env{Audit: aud},
		}
		switch rng.Intn(4) {
		case 1:
			cfg.UseRED = true
		case 2:
			cfg.UseRED = true
			cfg.ECN = true
		case 3:
			cfg.UseCoDel = true
		}
		res := RunLongLived(cfg)
		if err := aud.Err(); err != nil {
			t.Fatalf("scenario %d (%+v): %v", i, cfg, err)
		}
		if res.Utilization < 0 || res.Utilization > 1.000001 {
			t.Fatalf("scenario %d: utilization %v out of range", i, res.Utilization)
		}
	}

	// Short-flow and mixed workloads exercise finite flows, slow-start
	// completion accounting and the trace generator under audit.
	aud := audit.New()
	afct, completed, _ := ShortFlowAFCT(ShortFlowRunConfig{
		Seed: 42, Rate: 20 * units.Mbps, Load: 0.6, FlowLength: 10,
		BufferPackets: 40, Warmup: 2 * units.Second, Measure: 4 * units.Second,
		Env: Env{Audit: aud},
	})
	if err := aud.Err(); err != nil {
		t.Fatalf("short flows: %v", err)
	}
	if completed > 0 && afct <= 0 {
		t.Fatalf("short flows: %d completed but AFCT %v", completed, afct)
	}

	aud = audit.New()
	RunMixed(MixedConfig{
		Seed: 13, NLong: 6, ShortLoad: 0.2, Sizes: workload.GeometricSize(8),
		BottleneckRate: 20 * units.Mbps, BufferPackets: 30,
		Warmup: 2 * units.Second, Measure: 4 * units.Second,
		Env: Env{Audit: aud},
	})
	if err := aud.Err(); err != nil {
		t.Fatalf("mixed traffic: %v", err)
	}

	// Adversarial patterns are exactly the traffic that stresses the
	// conservation laws hardest — synchronized bursts overflowing tiny
	// buffers, lockstep loss epochs, multi-bottleneck chains — so each
	// randomized point runs one under audit too.
	for i := 0; i < 6; i++ {
		aud := audit.New()
		pc := adversarialPointConfig{
			Seed:            rng.Int63n(1 << 30),
			Pattern:         adversary.Pattern(i % len(adversary.PatternNames())),
			N:               2 + rng.Intn(10),
			BottleneckRate:  units.BitRate(10+rng.Intn(20)) * units.Mbps,
			RTT:             units.Duration(40+rng.Intn(80)) * units.Millisecond,
			SegmentSize:     units.DefaultSegment,
			BufferFactor:    0.05 + rng.Float64(),
			PulsePeakFactor: 2 + rng.Float64()*4,
			PulsePeriod:     units.Duration(100+rng.Intn(200)) * units.Millisecond,
			PulseDuty:       0.1 + rng.Float64()*0.5,
			Hops:            2 + rng.Intn(2),
			Warmup:          units.Duration(1+rng.Intn(2)) * units.Second,
			Measure:         units.Duration(2+rng.Intn(3)) * units.Second,
		}
		row := runAdversarialPoint(pc, aud)
		if err := aud.Err(); err != nil {
			t.Fatalf("adversarial %v (%+v): %v", pc.Pattern, pc, err)
		}
		if row.Utilization < 0 || row.Utilization > 1.000001 {
			t.Fatalf("adversarial %v: utilization %v out of range", pc.Pattern, row.Utilization)
		}
	}
}

// TestAuditDoesNotPerturbResults pins the pure-observation contract at
// the experiment level: the same config with and without an auditor must
// produce identical results, field for field.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	cfg := LongLivedConfig{
		Seed: 7, N: 8, BottleneckRate: 15 * units.Mbps, BufferPackets: 20,
		Warmup: 2 * units.Second, Measure: 4 * units.Second, UseRED: true,
	}
	base := RunLongLived(cfg)
	aud := audit.New()
	cfg.Audit = aud
	audited := RunLongLived(cfg)
	if err := aud.Err(); err != nil {
		t.Fatalf("audited run: %v", err)
	}
	cfg.Audit = nil
	if base != audited {
		t.Errorf("audit perturbed the run:\n  off: %+v\n  on:  %+v", base, audited)
	}
}
