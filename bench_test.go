package crowdcdn

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run them all with `go test -bench=. -benchmem`), the
// ablation benches called out in DESIGN.md, and micro-benchmarks of the
// core substrates. The figure benches run the same code as cmd/cdnexp
// at a reduced scale (benchScale) so a full -bench=. pass stays in the
// minutes; run cmd/cdnexp for paper-scale numbers.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/region"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchScale shrinks the paper's worlds for benchmarking.
const benchScale = 0.15

var (
	benchDataOnce sync.Once
	benchWorld    *trace.World
	benchTrace    *trace.Trace
	benchRunnerV  *exp.Runner
)

// benchData lazily generates one shared eval-scale world for all
// benchmarks (generation itself is benchmarked separately).
func benchData(b *testing.B) (*trace.World, *trace.Trace, *exp.Runner) {
	b.Helper()
	benchDataOnce.Do(func() {
		cfg := trace.EvalConfig()
		cfg.NumHotspots = 80
		cfg.NumVideos = 4000
		cfg.NumUsers = 8000
		cfg.NumRequests = 14400
		cfg.NumRegions = 8
		world, tr, err := trace.Generate(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench data generation failed: %v", err))
		}
		benchWorld, benchTrace = world, tr
		benchRunnerV = exp.NewRunner(1, benchScale)
	})
	return benchWorld, benchTrace, benchRunnerV
}

// benchFigure runs one paper experiment per iteration and logs its
// headline notes once.
func benchFigure(b *testing.B, id string) {
	_, _, runner := benchData(b)
	// Warm the runner's cached worlds so iterations time the analysis,
	// not one-off trace generation.
	if _, err := runner.Run(id); err != nil {
		b.Fatalf("warm-up %s: %v", id, err)
	}
	b.ResetTimer()
	var figs []*exp.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = runner.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, fig := range figs {
		for _, note := range fig.Notes {
			b.Logf("%s: %s", fig.ID, note)
		}
	}
}

func BenchmarkFig2WorkloadDistribution(b *testing.B) { benchFigure(b, "fig2") }
func BenchmarkFig3aWorkloadCorrelation(b *testing.B) { benchFigure(b, "fig3a") }
func BenchmarkFig3bContentSimilarity(b *testing.B)   { benchFigure(b, "fig3b") }
func BenchmarkFig5Deployment(b *testing.B)           { benchFigure(b, "fig5") }
func BenchmarkFig6CapacitySweep(b *testing.B)        { benchFigure(b, "fig6") }
func BenchmarkFig7CacheSweep(b *testing.B)           { benchFigure(b, "fig7") }
func BenchmarkFig8RunningTime(b *testing.B)          { benchFigure(b, "fig8") }
func BenchmarkFig9ThetaSweep(b *testing.B)           { benchFigure(b, "fig9") }

// benchPolicy simulates the shared world under a policy and reports the
// paper's metrics alongside the timing.
func benchPolicy(b *testing.B, policy sim.Scheduler) {
	world, tr, _ := benchData(b)
	b.ResetTimer()
	var m *sim.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		m, err = sim.Run(world, tr, policy, sim.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(m.HotspotServingRatio, "serving")
	b.ReportMetric(m.AvgAccessDistanceKm, "dist-km")
	b.ReportMetric(m.ReplicationCost, "repl")
	b.ReportMetric(m.CDNServerLoad, "cdn-load")
}

func BenchmarkSchemeRBCAer(b *testing.B)  { benchPolicy(b, scheme.NewRBCAer(core.DefaultParams())) }
func BenchmarkSchemeNearest(b *testing.B) { benchPolicy(b, scheme.Nearest{}) }
func BenchmarkSchemeRandom(b *testing.B)  { benchPolicy(b, scheme.Random{RadiusKm: 1.5}) }
func BenchmarkSchemeLPBased(b *testing.B) { benchPolicy(b, scheme.LPBased{}) }

// Ablation: value of content aggregation (guide nodes) and the
// guide-edge pricing formula (DESIGN.md's avg-distance vs the paper's
// literal avg-capacity).
func BenchmarkAblationGuideCost(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*core.Params)
	}{
		{"avg-distance", func(p *core.Params) { p.GuideCost = core.GuideCostAvgDistance }},
		{"avg-capacity", func(p *core.Params) { p.GuideCost = core.GuideCostAvgCapacity }},
		{"no-guides", func(p *core.Params) { p.DisableGuides = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			params := core.DefaultParams()
			v.mut(&params)
			benchPolicy(b, scheme.NewRBCAer(params))
		})
	}
}

// Ablation: the incremental θ sweep versus a single round at θ2.
func BenchmarkAblationThetaSchedule(b *testing.B) {
	for _, single := range []bool{false, true} {
		name := "sweep"
		if single {
			name = "single-shot"
		}
		b.Run(name, func(b *testing.B) {
			params := core.DefaultParams()
			params.SingleShotTheta = single
			benchPolicy(b, scheme.NewRBCAer(params))
		})
	}
}

// Ablation: oracle demand versus learned (EWMA / AR) demand over a
// multi-slot day.
func BenchmarkAblationPrediction(b *testing.B) {
	cfg := trace.EvalConfig()
	cfg.NumHotspots = 60
	cfg.NumVideos = 3000
	cfg.NumUsers = 6000
	cfg.NumRequests = 60000
	cfg.NumRegions = 8
	cfg.Slots = 48
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name   string
		policy sim.Scheduler
	}{
		{"oracle", scheme.NewRBCAer(core.DefaultParams())},
		{"seasonal24", &scheme.Predicted{Inner: scheme.NewRBCAer(core.DefaultParams()), Method: predict.Seasonal{Period: 24}}},
		{"ewma", &scheme.Predicted{Inner: scheme.NewRBCAer(core.DefaultParams()), Method: predict.EWMA{Alpha: 0.5}}},
		{"ar2", &scheme.Predicted{Inner: scheme.NewRBCAer(core.DefaultParams()), Method: predict.AR{Order: 2}}},
		{"last-value", &scheme.Predicted{Inner: scheme.NewRBCAer(core.DefaultParams()), Method: predict.LastValue{}}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = sim.Run(world, tr, v.policy, sim.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.HotspotServingRatio, "serving")
			b.ReportMetric(m.CDNServerLoad, "cdn-load")
		})
	}
}

// Ablation: MCMF solver choice inside RBCAer.
func BenchmarkAblationMCMF(b *testing.B) {
	for _, alg := range []mcmf.Algorithm{mcmf.SSPDijkstra, mcmf.BellmanFord} {
		b.Run(alg.String(), func(b *testing.B) {
			params := core.DefaultParams()
			params.Algorithm = alg
			benchPolicy(b, scheme.NewRBCAer(params))
		})
	}
}

// Ablation: sensitivity to the content-cluster cut threshold.
func BenchmarkAblationClusterCut(b *testing.B) {
	for _, cut := range []float64{0.5, 0.75, 0.85} {
		b.Run(fmt.Sprintf("cut=%.2f", cut), func(b *testing.B) {
			params := core.DefaultParams()
			params.ClusterCut = cut
			benchPolicy(b, scheme.NewRBCAer(params))
		})
	}
}

func BenchmarkSchemePowerOfTwo(b *testing.B) { benchPolicy(b, scheme.PowerOfTwo{RadiusKm: 1.5}) }
func BenchmarkSchemeHierarchical(b *testing.B) {
	benchPolicy(b, region.NewPolicy(3.0))
}

// Extension: robustness to crowdsourced-device churn.
func BenchmarkExtChurn(b *testing.B) {
	world, tr, _ := benchData(b)
	for _, churn := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("churn=%.1f", churn), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = sim.Run(world, tr, scheme.NewRBCAer(core.DefaultParams()),
					sim.Options{Seed: 1, HotspotChurn: churn})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.HotspotServingRatio, "serving")
			b.ReportMetric(float64(m.OfflineHotspotSlots), "offline-slots")
		})
	}
}

// Extension: reactive caching baselines.
func BenchmarkExtReactive(b *testing.B) {
	world, tr, _ := benchData(b)
	for _, policy := range []sim.Scheduler{scheme.NewReactiveLRU(), scheme.NewReactiveLFU()} {
		b.Run(policy.Name(), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = sim.Run(world, tr, policy, sim.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.HotspotServingRatio, "serving")
			b.ReportMetric(m.ReplicationCost, "repl")
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkMCMFSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	type edge struct {
		from, to int
		cap      int64
		cost     float64
	}
	edges := make([]edge, 0, n*6)
	for i := 0; i < n*6; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		edges = append(edges, edge{from, to, int64(1 + rng.Intn(20)), rng.Float64() * 10})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mcmf.NewGraph(n)
		for _, e := range edges {
			if _, err := g.AddEdge(e.from, e.to, e.cap, e.cost); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.MinCostMaxFlow(0, n-1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterAgglomerative(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			dist[i][j], dist[j][i] = v, v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := cluster.Agglomerative(n, func(a, c int) float64 { return dist[a][c] }, cluster.Complete)
		if err != nil {
			b.Fatal(err)
		}
		if got := d.Cut(0.5); len(got) == 0 {
			b.Fatal("empty cut")
		}
	}
}

func BenchmarkGridNearest(b *testing.B) {
	world, tr, _ := benchData(b)
	index, err := world.Index()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := tr.Requests[i%len(tr.Requests)]
		if _, _, ok := index.Nearest(req.Location); !ok {
			b.Fatal("no nearest")
		}
	}
}

// BenchmarkBuildSlotContext times the simulator's per-slot
// aggregation on one eval-scale slot (310 hotspots, 15,190 videos,
// 212,472 requests): every request's nearest hotspot plus the
// per-hotspot per-video demand rows.
func BenchmarkBuildSlotContext(b *testing.B) {
	world, tr, err := trace.Generate(trace.EvalConfig())
	if err != nil {
		b.Fatal(err)
	}
	index, err := world.Index()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.BuildSlotContext(world, index, 0, tr.Requests, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJaccardTopSets(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mkSet := func() similarity.Set {
		ids := make([]int, 60)
		for i := range ids {
			ids[i] = rng.Intn(400)
		}
		return similarity.NewSet(ids...)
	}
	sa, sb := mkSet(), mkSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.Jaccard(sa, sb)
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.EvalConfig()
	cfg.NumHotspots = 60
	cfg.NumVideos = 3000
	cfg.NumUsers = 5000
	cfg.NumRequests = 10000
	cfg.NumRegions = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRBCAerSchedulingRound(b *testing.B) {
	world, tr, _ := benchData(b)
	index, err := world.Index()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, tr.Requests, stats.SplitRand(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	sched, err := core.New(world, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(ctx.Demand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule measures one RBCAer scheduling round under
// different worker counts. The Workers knob parallelises the round's
// O(m²) loops (over×under distance cache, Jaccard matrix, candidate
// generation) without changing the plan, so the speedup here is the
// acceptance test for the parallel hot path.
func BenchmarkSchedule(b *testing.B) {
	world, tr, _ := benchData(b)
	index, err := world.Index()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, tr.Requests, stats.SplitRand(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			params := core.DefaultParams()
			params.Workers = workers
			sched, err := core.New(world, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Schedule(ctx.Demand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleObs measures one RBCAer scheduling round with the
// observability layer off versus fully on (registry counters plus
// round events) — the disabled variant must stay within noise of the
// pre-instrumentation hot path, and the enabled delta is the price of
// a fully observed round.
func BenchmarkScheduleObs(b *testing.B) {
	world, tr, _ := benchData(b)
	index, err := world.Index()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, tr.Requests, stats.SplitRand(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			params := core.DefaultParams()
			if enabled {
				params.Obs = obs.NewRegistry()
				params.RecordEvents = true
			}
			sched, err := core.New(world, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Schedule(ctx.Demand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleSlotsParallel measures a multi-slot replay with the
// timeslots scheduled sequentially (sim.Run) versus concurrently
// (sim.RunParallel) — the simulator half of the parallel hot path.
func BenchmarkScheduleSlotsParallel(b *testing.B) {
	cfg := trace.EvalConfig()
	cfg.NumHotspots = 60
	cfg.NumVideos = 3000
	cfg.NumUsers = 6000
	cfg.NumRequests = 48000
	cfg.NumRegions = 8
	cfg.Slots = 8
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	newPolicy := func() sim.Scheduler { return scheme.NewRBCAer(core.DefaultParams()) }
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "concurrent"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunParallel(world, tr, newPolicy, workers, sim.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSpearman(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 24)
	ys := make([]float64, 24)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Spearman(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
