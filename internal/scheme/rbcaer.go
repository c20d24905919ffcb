package scheme

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// RBCAer adapts the core scheduler (Algorithm 1 + Procedure 1) to the
// simulator: it runs a scheduling round on the slot's aggregated
// demand, then materialises the plan's per-video redirects into
// per-request targets.
type RBCAer struct {
	// Params are forwarded to core.New; the zero value selects
	// core.DefaultParams.
	Params core.Params

	// sched caches the core scheduler across slots for one world.
	sched *core.Scheduler
}

var _ sim.Scheduler = (*RBCAer)(nil)

// NewRBCAer returns the policy with the given parameters.
func NewRBCAer(params core.Params) *RBCAer {
	return &RBCAer{Params: params}
}

// Name implements sim.Scheduler.
func (p *RBCAer) Name() string { return "RBCAer" }

// Schedule implements sim.Scheduler.
func (p *RBCAer) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.Params == (core.Params{}) {
		p.Params = core.DefaultParams()
	}
	if p.sched == nil || p.sched.World() != ctx.World {
		sched, err := core.New(ctx.World, p.Params)
		if err != nil {
			return nil, fmt.Errorf("scheme: building RBCAer: %w", err)
		}
		p.sched = sched
	}

	plan, err := p.sched.ScheduleRound(ctx.Demand, core.Constraints{
		Service: ctx.EffectiveCapacity(),
		Cache:   ctx.EffectiveCacheCapacity(),
	})
	if err != nil {
		return nil, fmt.Errorf("scheme: RBCAer scheduling: %w", err)
	}
	asg, err := MaterializePlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	asg.Degraded = plan.Degraded
	asg.StrandedDemand = plan.Stats.StrandedToCDN
	asg.Phases = plan.Stats.Phases
	asg.Events = plan.Events
	asg.Plan = plan
	return asg, nil
}

// MaterializePlan converts a core.Plan into per-request targets:
// redirected (hotspot, video) demand is sent to the plan's targets, the
// rest is served locally while the local service budget (capacity minus
// reserved inflow) lasts, and everything else goes to the CDN. It is
// exported so experiments can route a plan produced outside the policy
// (e.g. from predicted demand).
func MaterializePlan(ctx *sim.SlotContext, plan *core.Plan) (*sim.Assignment, error) {
	m := len(ctx.World.Hotspots)

	// Redirect queues keyed by (source hotspot, video), and the inflow
	// each target must reserve capacity for. outVideos[h] lists the
	// videos hotspot h redirects; packed into a Lookup it lets the
	// per-request loop skip the queue map for the (majority of)
	// requests that are not redirected.
	type redirectQueue struct {
		targets []int
		counts  []int64
	}
	queues := make(map[int64]*redirectQueue)
	inflow := make([]int64, m)
	outVideos := make([][]int, m)
	key := func(h int, v trace.VideoID) int64 {
		return int64(h)*int64(ctx.World.NumVideos) + int64(v)
	}
	for _, rd := range plan.Redirects {
		if int(rd.From) < 0 || int(rd.From) >= m || int(rd.To) < 0 || int(rd.To) >= m {
			return nil, fmt.Errorf("scheme: plan redirect %d→%d outside the %d-hotspot fleet", rd.From, rd.To, m)
		}
		k := key(int(rd.From), rd.Video)
		q := queues[k]
		if q == nil {
			q = &redirectQueue{}
			queues[k] = q
			outVideos[rd.From] = append(outVideos[rd.From], int(rd.Video))
		}
		q.targets = append(q.targets, int(rd.To))
		q.counts = append(q.counts, rd.Count)
		inflow[rd.To] += rd.Count
	}
	outSets := make([]similarity.Set, m)
	for h, vs := range outVideos {
		outSets[h] = similarity.NewSet(vs...)
	}
	redirected := similarity.NewLookup(outSets)

	capacity := ctx.EffectiveCapacity()
	localBudget := make([]int64, m)
	for h := 0; h < m; h++ {
		localBudget[h] = capacity[h] - inflow[h]
		if localBudget[h] < 0 {
			return nil, fmt.Errorf("scheme: plan reserves %d inflow at hotspot %d beyond capacity %d",
				inflow[h], h, capacity[h])
		}
	}

	placed := similarity.NewLookup(plan.Placement)
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if redirected.Contains(h, int(req.Video)) {
			if q := queues[key(h, req.Video)]; len(q.targets) > 0 {
				targets[r] = q.targets[0]
				q.counts[0]--
				if q.counts[0] == 0 {
					q.targets = q.targets[1:]
					q.counts = q.counts[1:]
				}
				continue
			}
		}
		if localBudget[h] > 0 && placed.Contains(h, int(req.Video)) {
			targets[r] = h
			localBudget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return &sim.Assignment{Placement: plan.Placement, Target: targets}, nil
}
