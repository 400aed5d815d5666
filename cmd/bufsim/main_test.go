package main

import (
	"strings"
	"testing"

	"bufsim"
)

// TestVerifyMismatchFailsEveryScenario pins that every scenario kind the
// command runs reports a cache-verify mismatch as an error, so
// -cache-verify exits nonzero whichever scenario replayed wrongly.
func TestVerifyMismatchFailsEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	link := bufsim.Link{Rate: 10 * bufsim.Mbps, RTT: 50 * bufsim.Millisecond}
	scenarios := map[string]func(observers) error{
		"long-lived": func(obs observers) error {
			return runLongLived(bufsim.Simulation{
				Seed: 1, Link: link, Flows: 8, BufferPackets: 20,
				RTTSpread: 20 * bufsim.Millisecond,
				Warmup:    1 * bufsim.Second, Measure: 2 * bufsim.Second,
			}, false, obs)
		},
		"adversary": func(obs observers) error {
			return runAdversary("pulse", bufsim.AdversarySimulation{
				Seed: 1, Link: link, Flows: 4, BufferPackets: 20,
				Warmup: 1 * bufsim.Second, Measure: 2 * bufsim.Second,
			}, false, obs)
		},
		"profile": func(obs observers) error {
			return runProfile(profileScenario{
				arg: "flashcrowd", load: 0.5, flowLen: 14,
				link: link, buffer: 20, peakFlows: 4,
				seed: 1, warmup: 1 * bufsim.Second, measure: 2 * bufsim.Second,
			}, false, obs)
		},
	}
	for name, run := range scenarios {
		t.Run(name, func(t *testing.T) {
			cache, err := bufsim.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			obs := observers{audit: true, cache: cache}
			if err := run(obs); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			cache.RecordVerify("key", name, false)
			err = run(obs)
			if err == nil || !strings.Contains(err.Error(), "cache-verify") {
				t.Fatalf("recorded mismatch: got error %v, want a cache-verify error", err)
			}
		})
	}
}
