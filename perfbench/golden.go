package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the seed whose sched-eval outputs are committed.
const goldenSeed = 1

// goldenPath is the committed file, relative to the checkout root.
const goldenPath = "perfbench/golden/sched-eval-seed1.json"

//go:embed golden/sched-eval-seed1.json
var goldenJSON []byte

// schedGolden pins sched-eval's outputs for goldenSeed: every slot's
// plan digest and the paper's three metrics (means over the worlds),
// compared exactly.
type schedGolden struct {
	Seed            int64    `json:"seed"`
	Digests         []string `json:"digests"`
	ServingRatio    float64  `json:"serving_ratio"`
	AccessKm        float64  `json:"access_km"`
	ReplicationCost float64  `json:"replication_cost"`
}

func goldenOf(seed int64, p *evalPass) schedGolden {
	g := schedGolden{Seed: seed, ServingRatio: p.quality[0], AccessKm: p.quality[1], ReplicationCost: p.quality[2]}
	for _, d := range p.digests {
		g.Digests = append(g.Digests, fmt.Sprintf("%016x", d))
	}
	return g
}

// compareGolden reports the first difference between a run and the
// committed outputs.
func compareGolden(want, got schedGolden) error {
	if len(want.Digests) != len(got.Digests) {
		return fmt.Errorf("%d slot digests, golden has %d", len(got.Digests), len(want.Digests))
	}
	for i := range want.Digests {
		if want.Digests[i] != got.Digests[i] {
			return fmt.Errorf("slot %d digest %s, golden %s", i, got.Digests[i], want.Digests[i])
		}
	}
	switch {
	case want.ServingRatio != got.ServingRatio:
		return fmt.Errorf("serving ratio %v, golden %v", got.ServingRatio, want.ServingRatio)
	case want.AccessKm != got.AccessKm:
		return fmt.Errorf("access distance %v km, golden %v", got.AccessKm, want.AccessKm)
	case want.ReplicationCost != got.ReplicationCost:
		return fmt.Errorf("replication cost %v, golden %v", got.ReplicationCost, want.ReplicationCost)
	}
	return nil
}

// checkSchedGolden compares a goldenSeed run with the committed file.
// Setting PERFBENCH_WRITE_GOLDEN=1 rewrites the file instead, for a
// change that alters plans on purpose.
func checkSchedGolden(seed int64, p *evalPass) error {
	if seed != goldenSeed {
		return nil
	}
	got := goldenOf(seed, p)
	if os.Getenv("PERFBENCH_WRITE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
	}
	var want schedGolden
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return fmt.Errorf("reading golden: %w", err)
	}
	return compareGolden(want, got)
}
