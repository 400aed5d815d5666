package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// pins.json is the benchmark's record of what correct output looks like
// and of what the numbers were first measured on (its "provenance":
// Go version, GOMAXPROCS, nproc, CPU model, git revision, date and
// seed). It is compiled in, so a run checks against the pins of the
// benchmark version it was built from.
//
//go:embed pins.json
var pinsJSON []byte

// pinFile is the schema of pins.json.
type pinFile struct {
	// ReferenceSeed is the seed the reference event counts were taken at.
	ReferenceSeed int64 `json:"reference_seed"`
	// ReferenceEvents is each workload's event count at ReferenceSeed;
	// events_per_s divides it by the measured wall time, so a change that
	// removes events reads as faster rather than slower.
	ReferenceEvents map[string]float64 `json:"reference_events"`
	// Digests maps workload -> seed -> result digest: for the in-process
	// workloads the SHA-256 of the simulated outcomes (see
	// simRun.digest), for cc_sweep the SHA-256 of the paperexp table
	// with its timing lines stripped.
	Digests map[string]map[string]string `json:"digests"`
	// Workloads gives the reason each workload is in the benchmark.
	Workloads map[string]string `json:"workloads"`
	// Moves names, for each per-layer metric, the end-to-end metric and
	// workload it is expected to move.
	Moves map[string]string `json:"moves"`
}

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checkDigest compares a run's digest with the pinned one for its seed.
// pinned is false for a seed without a pin: such a run can only be
// compared with the other runs of its invocation, and the report says so.
func (p pinFile) checkDigest(workload string, seed int64, digest string) (pinned bool, err error) {
	want, ok := p.Digests[workload][strconv.FormatInt(seed, 10)]
	if ok && want != digest {
		return true, fmt.Errorf("%s seed %d: result digest %.16s…, pinned %.16s…", workload, seed, digest, want)
	}
	return ok, nil
}

// pinnedSeeds describes the seeds pinned for workload: how many, and
// the lowest and highest.
func (p pinFile) pinnedSeeds(workload string) string {
	var seeds []int
	for k := range p.Digests[workload] {
		if n, err := strconv.Atoi(k); err == nil {
			seeds = append(seeds, n)
		}
	}
	if len(seeds) == 0 {
		return "none"
	}
	sort.Ints(seeds)
	return fmt.Sprintf("%d seeds, %d–%d", len(seeds), seeds[0], seeds[len(seeds)-1])
}
