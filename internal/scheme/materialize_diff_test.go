package scheme

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// refMaterialize is MaterializePlan's routing over map-based structures:
// a redirect queue map probed for every request and a map placement.
// It reports ok=false where MaterializePlan must fail (a plan reserving
// inflow beyond a target's capacity).
func refMaterialize(ctx *sim.SlotContext, redirects []core.Redirect, placement []map[int]bool) ([]int, bool) {
	m := len(ctx.World.Hotspots)
	type queue struct {
		targets []int
		counts  []int64
	}
	queues := make(map[[2]int]*queue)
	inflow := make([]int64, m)
	for _, rd := range redirects {
		k := [2]int{int(rd.From), int(rd.Video)}
		if queues[k] == nil {
			queues[k] = &queue{}
		}
		queues[k].targets = append(queues[k].targets, int(rd.To))
		queues[k].counts = append(queues[k].counts, rd.Count)
		inflow[rd.To] += rd.Count
	}
	budget := make([]int64, m)
	for h, c := range ctx.EffectiveCapacity() {
		if budget[h] = c - inflow[h]; budget[h] < 0 {
			return nil, false
		}
	}
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if q := queues[[2]int{h, int(req.Video)}]; q != nil && len(q.targets) > 0 {
			targets[r] = q.targets[0]
			if q.counts[0]--; q.counts[0] == 0 {
				q.targets, q.counts = q.targets[1:], q.counts[1:]
			}
			continue
		}
		if budget[h] > 0 && placement[h][int(req.Video)] {
			targets[r] = h
			budget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return targets, true
}

// TestMaterializePlanMatchesMapReference routes random plans — redirects
// drawn from the slot's own (hotspot, video) demand, placements heavy
// with the slot's videos — through MaterializePlan and the map-based
// reference and requires identical targets (or both failing).
func TestMaterializePlanMatchesMapReference(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	m := len(world.Hotspots)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		plan := &core.Plan{Placement: make([]similarity.Set, m)}
		for i := rng.Intn(200); i > 0; i-- {
			r := rng.Intn(len(ctx.Requests))
			plan.Redirects = append(plan.Redirects, core.Redirect{
				From:  trace.HotspotID(ctx.Nearest[r]),
				To:    trace.HotspotID(rng.Intn(m)),
				Video: ctx.Requests[r].Video,
				Count: int64(1 + rng.Intn(3)),
			})
		}
		placement := make([]map[int]bool, m)
		for h := range placement {
			placement[h] = make(map[int]bool)
			var ids []int
			for i := rng.Intn(120); i > 0; i-- {
				v := rng.Intn(world.NumVideos)
				if rng.Intn(2) == 0 {
					v = int(ctx.Requests[rng.Intn(len(ctx.Requests))].Video)
				}
				ids = append(ids, v)
				placement[h][v] = true
			}
			plan.Placement[h] = similarity.NewSet(ids...)
		}
		want, ok := refMaterialize(ctx, plan.Redirects, placement)
		asg, err := MaterializePlan(ctx, plan)
		if (err == nil) != ok {
			t.Fatalf("trial %d: MaterializePlan error %v, reference ok %v", trial, err, ok)
		}
		if ok && !slices.Equal(asg.Target, want) {
			t.Fatalf("trial %d: targets differ from the map reference", trial)
		}
	}
	for _, rd := range []core.Redirect{{From: trace.HotspotID(m), To: 0}, {From: 0, To: -1}} {
		rd.Video, rd.Count = 1, 1
		bad := &core.Plan{Placement: make([]similarity.Set, m), Redirects: []core.Redirect{rd}}
		if _, err := MaterializePlan(ctx, bad); err == nil {
			t.Errorf("redirect %d→%d outside the fleet materialised", rd.From, rd.To)
		}
	}
}
