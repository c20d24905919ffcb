package scheme

import (
	"fmt"

	"repro/internal/sim"
)

// Random is the paper's local-random scheme: each hotspot caches the
// most popular videos of its radius-neighbourhood, and a request is
// routed uniformly at random to a hotspot within the radius that has
// the video cached and service capacity left, falling back to the CDN.
type Random struct {
	// RadiusKm is the routing/caching radius (the paper's 1.5 km).
	RadiusKm float64
}

var _ sim.Scheduler = Random{}

// Name implements sim.Scheduler.
func (r Random) Name() string { return fmt.Sprintf("Random(%.1fkm)", r.RadiusKm) }

// Schedule implements sim.Scheduler.
func (r Random) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if r.RadiusKm <= 0 {
		return nil, fmt.Errorf("scheme: Random radius must be positive, got %v", r.RadiusKm)
	}

	// Cache the most popular videos of each hotspot's neighbourhood.
	placement, neighborsOf, err := neighborhoodPlacement(ctx, r.RadiusKm)
	if err != nil {
		return nil, err
	}

	// Route each request to a random in-radius holder with remaining
	// capacity. The candidate set is the radius-neighbourhood of the
	// request's aggregation (nearest) hotspot, matching the paper's
	// formulation where redirection happens between hotspots.
	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	targets := make([]int, len(ctx.Requests))
	var holders []int
	for i, req := range ctx.Requests {
		holders = holders[:0]
		for _, nb := range neighborsOf[ctx.Nearest[i]] {
			if capLeft[nb] > 0 && placement[nb].Contains(int(req.Video)) {
				holders = append(holders, nb)
			}
		}
		if len(holders) == 0 {
			targets[i] = sim.CDN
			continue
		}
		h := holders[ctx.Rand.Intn(len(holders))]
		capLeft[h]--
		targets[i] = h
	}
	return &sim.Assignment{Placement: placement, Target: targets}, nil
}
