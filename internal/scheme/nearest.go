// Package scheme implements the request-redirection policies compared
// in the paper's evaluation: the Nearest and (local) Random baselines,
// the RBCAer policy built on internal/core, and the LP-relaxation
// scheme used in the running-time comparison. All satisfy
// sim.Scheduler.
package scheme

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/similarity"
)

// Nearest routes every request to its nearest hotspot; each hotspot
// independently caches its most locally popular videos up to its cache
// capacity (the paper's Nearest scheme).
type Nearest struct{}

var _ sim.Scheduler = Nearest{}

// Name implements sim.Scheduler.
func (Nearest) Name() string { return "Nearest" }

// Schedule implements sim.Scheduler.
func (Nearest) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	m := len(ctx.World.Hotspots)
	cache := ctx.EffectiveCacheCapacity()
	placement := make([]similarity.Set, m)
	for h := 0; h < m; h++ {
		set, err := similarity.TopK(ctx.Demand.VideoCounts(h), max(cache[h], 0))
		if err != nil {
			return nil, fmt.Errorf("scheme: placement at hotspot %d: %w", h, err)
		}
		placement[h] = set
	}
	targets := make([]int, len(ctx.Requests))
	copy(targets, ctx.Nearest)
	return &sim.Assignment{Placement: placement, Target: targets}, nil
}
