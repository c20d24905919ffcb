package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Differential tests: the simulator's counted aggregation against the
// per-request reference it replaced — a brute-force nearest online
// hotspot (lowest hotspot index among exact ties, the grid's insertion
// order) folded in with one Demand.Add per request.

// refNearest returns the nearest online hotspot to p, or -1 when none
// is online.
func refNearest(world *trace.World, offline []bool, p geo.Point) int {
	best, bestD2 := -1, 0.0
	for h, hs := range world.Hotspots {
		if offline != nil && offline[h] {
			continue
		}
		dx, dy := p.X-hs.Location.X, p.Y-hs.Location.Y
		if d2 := dx*dx + dy*dy; best < 0 || d2 < bestD2 {
			best, bestD2 = h, d2
		}
	}
	return best
}

// refDemand aggregates requests one Demand.Add at a time and then
// blanks the dropped hotspots' reports.
func refDemand(world *trace.World, offline []bool, requests []trace.Request, drops []bool) (*core.Demand, []int) {
	d := core.NewDemand(len(world.Hotspots))
	nearest := make([]int, len(requests))
	for r, req := range requests {
		h := refNearest(world, offline, req.Location)
		nearest[r] = h
		if h >= 0 {
			d.Add(trace.HotspotID(h), req.Video, 1)
		}
	}
	for h, dropped := range drops {
		if dropped {
			d.Totals[h] = 0
			d.PerVideo[h] = nil
		}
	}
	return d, nearest
}

// diffWorld generates a small world and trace, then plants exact ties:
// some hotspots share another's location and some requests sit exactly
// on a hotspot.
func diffWorld(t *testing.T, seed int64) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.NumHotspots = 40
	cfg.NumVideos = 300
	cfg.NumUsers = 500
	cfg.NumRequests = 4000
	cfg.NumRegions = 4
	cfg.Slots = 3
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 6; k++ {
		a, b := rng.Intn(len(world.Hotspots)), rng.Intn(len(world.Hotspots))
		world.Hotspots[a].Location = world.Hotspots[b].Location
	}
	for k := 0; k < 200; k++ {
		r := rng.Intn(len(tr.Requests))
		tr.Requests[r].Location = world.Hotspots[rng.Intn(len(world.Hotspots))].Location
	}
	return world, tr
}

func checkDemand(t *testing.T, label string, got, want *core.Demand) {
	t.Helper()
	if !reflect.DeepEqual(got.Totals, want.Totals) {
		t.Fatalf("%s: Totals %v, reference %v", label, got.Totals, want.Totals)
	}
	if !reflect.DeepEqual(got.PerVideo, want.PerVideo) {
		t.Fatalf("%s: PerVideo differs from the per-request reference", label)
	}
}

func TestBuildSlotContextMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		world, tr := diffWorld(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for slot, requests := range tr.BySlot() {
			// Full fleet, then a churned fleet through the online index.
			offline := make([]bool, len(world.Hotspots))
			for h := range offline {
				offline[h] = rng.Float64() < 0.3
			}
			for _, off := range [][]bool{nil, offline} {
				index, err := world.Index()
				if off != nil {
					index, err = onlineIndex(world, off)
				}
				if err != nil {
					t.Fatal(err)
				}
				ctx, err := BuildSlotContext(world, index, slot, requests, stats.SplitRand(seed, "diff"))
				if err != nil {
					t.Fatal(err)
				}
				want, wantNearest := refDemand(world, off, requests, nil)
				if !reflect.DeepEqual(ctx.Nearest, wantNearest) {
					t.Fatalf("seed %d slot %d churned=%v: Nearest differs from brute force", seed, slot, off != nil)
				}
				checkDemand(t, "BuildSlotContext", ctx.Demand, want)
			}
		}
	}
}

// TestStaleReportDemandMatchesReference drives scheduleSlot's stale
// path directly: a lagged report aggregated through the slot's online
// index, with some hotspots' reports dropped.
func TestStaleReportDemandMatchesReference(t *testing.T) {
	var seen *core.Demand
	recorder := stubPolicy{name: "recorder", schedule: func(ctx *SlotContext) (*Assignment, error) {
		seen = ctx.Demand
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{Placement: make([]similarity.Set, len(ctx.World.Hotspots)), Target: targets}, nil
	}}
	for seed := int64(1); seed <= 4; seed++ {
		world, tr := diffWorld(t, seed)
		index, err := world.Index()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		bySlot := tr.BySlot()
		for slot := 1; slot < len(bySlot); slot++ {
			m := len(world.Hotspots)
			w := &slotWork{
				slot:           slot,
				requests:       bySlot[slot],
				offline:        make([]bool, m),
				drops:          make([]bool, m),
				stale:          true,
				reportRequests: bySlot[slot-1],
			}
			for h := 0; h < m; h++ {
				w.offline[h] = rng.Float64() < 0.25
				w.drops[h] = rng.Float64() < 0.2
			}
			if err := scheduleSlot(world, index, recorder, Options{}, w); err != nil {
				t.Fatal(err)
			}
			want, _ := refDemand(world, w.offline, w.reportRequests, w.drops)
			checkDemand(t, "stale report", seen, want)
			actual, _ := refDemand(world, w.offline, w.requests, nil)
			checkDemand(t, "actual demand", w.actual, actual)
		}
	}
}

func TestBuildSlotContextRejectsNegativeVideo(t *testing.T) {
	world := twoHotspotWorld()
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{ID: 3, Video: -1}}
	if _, err := BuildSlotContext(world, index, 0, reqs, stats.SplitRand(1, "neg")); err == nil {
		t.Error("BuildSlotContext accepted a negative video id")
	}
}
