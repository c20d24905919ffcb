// Command cdnbench runs the repository's headline performance
// benchmarks programmatically and records the results as a JSON
// artifact (BENCH_9.json by default) so CI can track ns/op, B/op, and
// allocs/op regressions across commits. The workload is fixed-seed and
// matches the root bench_test.go configuration, so numbers are
// comparable with `go test -bench=BenchmarkSchedule -benchmem .`. The
// Server* lines measure the online service's ingest and lookup hot
// paths through its real HTTP handlers (socketless), and the
// ServeReplay/instances=N lines replay a ServeGen open-loop workload
// (≥1M requests in full mode) through 1/2/4/8 frontend instances,
// reporting end-to-end throughput.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// benchResult is one benchmark line of the JSON artifact. The replay
// lines carry the request count and end-to-end throughput; the
// iteration benchmarks leave them zero.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Requests    int64   `json:"requests,omitempty"`
	ReqPerSec   float64 `json:"req_per_sec,omitempty"`
}

// namedBench pairs an artifact name with a benchmark body.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// scheduleDemand generates the fixed-seed world and slot-0 demand the
// schedule benches run against. quick shrinks the world for CI smoke
// runs; the recorded artifact uses the full (root bench_test.go) scale.
func scheduleDemand(quick bool) (*trace.World, *core.Demand, error) {
	cfg := trace.EvalConfig()
	if quick {
		cfg.NumHotspots = 40
		cfg.NumVideos = 2000
		cfg.NumUsers = 4000
		cfg.NumRequests = 7200
	} else {
		cfg.NumHotspots = 80
		cfg.NumVideos = 4000
		cfg.NumUsers = 8000
		cfg.NumRequests = 14400
	}
	cfg.NumRegions = 8
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	index, err := world.Index()
	if err != nil {
		return nil, nil, err
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, tr.Requests, stats.SplitRand(1, "bench"))
	if err != nil {
		return nil, nil, err
	}
	return world, ctx.Demand, nil
}

// benchmarks assembles the headline suite: the end-to-end scheduling
// round at the determinism-contract worker counts, the sharded round,
// the Jaccard kernel pair, and the arena-reuse MCMF solve.
func benchmarks(quick bool) ([]namedBench, error) {
	world, demand, err := scheduleDemand(quick)
	if err != nil {
		return nil, fmt.Errorf("generating bench world: %w", err)
	}

	var out []namedBench
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		params := core.DefaultParams()
		params.Workers = workers
		sched, err := core.New(world, params)
		if err != nil {
			return nil, err
		}
		out = append(out, namedBench{
			name: fmt.Sprintf("Schedule/workers=%d", workers),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sched.Schedule(demand); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}

	// Sharded round: grid-partitioned shards solved concurrently over
	// a bounded pool, then boundary reconciliation. Same demand as the
	// global Schedule benches, so the two are directly comparable.
	shardSched, err := shard.New(world, shard.Params{CellKm: 4, Workers: 4})
	if err != nil {
		return nil, err
	}
	out = append(out, namedBench{
		name: "ScheduleSharded",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shardSched.Schedule(demand); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	rng := rand.New(rand.NewSource(3))
	mkSet := func(universe, size int) similarity.Set {
		ids := make([]int, size)
		for k := range ids {
			ids[k] = rng.Intn(universe)
		}
		return similarity.NewSet(ids...)
	}
	sa, sb := mkSet(4000, 300), mkSet(4000, 300)
	bs, ok := similarity.NewBitSets([]similarity.Set{sa, sb})
	if !ok {
		return nil, fmt.Errorf("NewBitSets refused the bench universe")
	}
	out = append(out,
		namedBench{name: "JaccardSet", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = similarity.Jaccard(sa, sb)
			}
		}},
		namedBench{name: "JaccardBitset", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bs[0].Jaccard(&bs[1])
			}
		}},
	)

	const n = 200
	type edge struct {
		from, to int
		cap      int64
		cost     float64
	}
	erng := rand.New(rand.NewSource(1))
	edges := make([]edge, 0, n*6)
	for k := 0; k < n*6; k++ {
		from, to := erng.Intn(n), erng.Intn(n)
		if from == to {
			continue
		}
		edges = append(edges, edge{from, to, int64(1 + erng.Intn(20)), erng.Float64() * 10})
	}
	g := mcmf.NewGraph(0)
	out = append(out, namedBench{name: "MCMFSolveReuse", fn: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Reinit(n)
			for _, e := range edges {
				if _, err := g.AddEdge(e.from, e.to, e.cap, e.cost); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := g.MinCostMaxFlow(0, n-1); err != nil {
				b.Fatal(err)
			}
		}
	}})

	serverBenches, err := onlineBenches(world, demand)
	if err != nil {
		return nil, err
	}
	out = append(out, serverBenches...)
	return append(out, walBenches()...), nil
}

// walBenches measures the durability subsystem: one append + group
// commit under each fsync policy, and a full recovery replay (scan,
// CRC-verify, rebuild) of a 20k-record multi-segment log.
func walBenches() []namedBench {
	var out []namedBench
	for _, policy := range []wal.Policy{wal.PolicyAlways, wal.PolicyInterval, wal.PolicyNone} {
		policy := policy
		out = append(out, namedBench{name: "WALAppend/policy=" + policy.String(), fn: func(b *testing.B) {
			l, _, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lsn, err := l.AppendIngest(i>>10, 0, uint64(i+1), i%64, i%512, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Sync(lsn); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	out = append(out, namedBench{name: "WALRecoveryReplay", fn: func(b *testing.B) {
		dir := b.TempDir()
		l, _, err := wal.Open(dir, wal.Options{Policy: wal.PolicyNone})
		if err != nil {
			b.Fatal(err)
		}
		plan := &core.Plan{
			Flows:         []core.FlowEdge{{From: 0, To: 1, Amount: 10}},
			Redirects:     []core.Redirect{{From: 1, To: 0, Video: 2, Count: 7}},
			Placement:     []similarity.Set{similarity.NewSet(1, 2), similarity.NewSet(0)},
			OverflowToCDN: []int64{0, 7},
		}
		canonical := plan.Canonical()
		digest := core.DigestOf(canonical)
		const records = 20000
		for i := 0; i < records; i++ {
			if i%2000 == 1999 {
				slot := i / 2000
				if _, err := l.AppendAdvance(slot); err != nil {
					b.Fatal(err)
				}
				if _, err := l.AppendPlan(slot, int64(slot+1), digest, canonical); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, err := l.AppendIngest(i/2000, i%4, uint64(i/4+1), i%64, i%512, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l2, st, err := wal.Open(dir, wal.Options{Policy: wal.PolicyNone})
			if err != nil {
				b.Fatal(err)
			}
			if want := records + records/2000; st.Records != want {
				b.Fatalf("recovered %d records, want %d", st.Records, want)
			}
			l2.Close()
		}
	}})
	return out
}

// onlineBenches measures the online service's two hot paths — POST
// /ingest (decode, validate, nearest-hotspot resolve, striped
// accumulate) and GET /redirect (atomic plan load + lookup) — through
// the real HTTP handler, socketless. The lookup bench runs against a
// live plan scheduled from the same demand as the Schedule benches.
func onlineBenches(world *trace.World, demand *core.Demand) ([]namedBench, error) {
	srv, err := server.New(server.Config{World: world, QueueBound: 1 << 30})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	handler := srv.Handler()

	// Seed the serving plan by replaying the bench demand through the
	// public ingest + advance path.
	for h := range demand.PerVideo {
		for v, n := range demand.PerVideo[h] {
			body := []byte(fmt.Sprintf(`{"user":1,"video":%d,"hotspot":%d}`, v, h))
			for k := int64(0); k < n; k++ {
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
				if rr.Code != http.StatusAccepted {
					return nil, fmt.Errorf("seeding ingest: status %d", rr.Code)
				}
			}
		}
	}
	if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
		return nil, fmt.Errorf("seeding plan: %w", err)
	}

	rng := rand.New(rand.NewSource(9))
	bodies := make([][]byte, 1024)
	for i := range bodies {
		x := world.Bounds.MinX + rng.Float64()*(world.Bounds.MaxX-world.Bounds.MinX)
		y := world.Bounds.MinY + rng.Float64()*(world.Bounds.MaxY-world.Bounds.MinY)
		bodies[i] = []byte(fmt.Sprintf(`{"user":%d,"video":%d,"x":%.4f,"y":%.4f}`,
			rng.Intn(1000), rng.Intn(world.NumVideos), x, y))
	}
	lookups := make([]string, 1024)
	for i := range lookups {
		lookups[i] = fmt.Sprintf("/redirect?video=%d&hotspot=%d",
			rng.Intn(world.NumVideos), rng.Intn(len(world.Hotspots)))
	}

	return []namedBench{
		{name: "ServerIngest", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i%len(bodies)])))
				if rr.Code != http.StatusAccepted {
					b.Fatalf("ingest status %d", rr.Code)
				}
			}
		}},
		{name: "ServerIngestParallel", fn: func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := newNopResponseWriter()
				var i int
				for pb.Next() {
					i++
					w.reset()
					handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i%len(bodies)])))
					if w.status != http.StatusAccepted {
						b.Errorf("ingest status %d", w.status)
						return
					}
				}
			})
		}},
		{name: "ServerLookup", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, lookups[i%len(lookups)], nil))
				if rr.Code != http.StatusOK {
					b.Fatalf("lookup status %d", rr.Code)
				}
			}
		}},
	}, nil
}

// nopResponseWriter discards response bodies: the throughput runs
// measure the server's work, not response capture, and reusing one
// writer per client keeps harness allocations out of the numbers.
type nopResponseWriter struct {
	h      http.Header
	status int
}

func newNopResponseWriter() *nopResponseWriter {
	return &nopResponseWriter{h: make(http.Header, 4)}
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(status int)      { w.status = status }
func (w *nopResponseWriter) reset() {
	w.status = 0
	for k := range w.h {
		delete(w.h, k)
	}
}

// replayWorld builds the serving-tier replay's deployment: a grid of
// hotspots with uniform capacities (the replay measures the serving
// tier, so the world stays small enough that per-slot scheduling does
// not dominate ingest).
func replayWorld(hotspots, videos int) *trace.World {
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: 25, MaxY: 25},
		NumVideos:     videos,
		CDNDistanceKm: 20,
	}
	for h := 0; h < hotspots; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h % 6 * 4), Y: float64(h / 6 * 4)},
			ServiceCapacity: 200,
			CacheCapacity:   50,
		})
	}
	return w
}

// replaySpec is the ServeGen-style open-loop workload the ServeReplay
// lines drive: a Poisson base population, a bursty gamma class
// (shape 0.5), and a smooth weibull class, together offering
// clients·rate ≈ 37k req/s in full mode — ≥1M requests over the 30 s
// horizon. quick shrinks the population and horizon for smoke runs.
func replaySpec(quick bool) (string, int) {
	if quick {
		return `
class steady clients=10 arrival=poisson rate=120 videos=zipf:0.9
class bursty clients=5  arrival=gamma   rate=100 shape=0.5 videos=zipf:1.1
class smooth clients=3  arrival=weibull rate=60  shape=2   videos=uniform
`, 4
	}
	return `
class steady clients=200 arrival=poisson rate=120 videos=zipf:0.9
class bursty clients=100 arrival=gamma   rate=100 shape=0.5 videos=zipf:1.1
class smooth clients=50  arrival=weibull rate=60  shape=2   videos=uniform
`, 30
}

// serveReplayBenches replays one generated open-loop stream through the
// serving tier at each instance count, socketless through every
// frontend's handler, and reports end-to-end throughput (ingest +
// per-slot scheduling + digest-verified fan-out). The same stream and
// pre-encoded bodies are reused across instance counts, so the lines
// differ only in the tier they drive.
func serveReplayBenches(quick bool) ([]benchResult, error) {
	specText, slots := replaySpec(quick)
	spec, err := loadgen.ParseSpec(specText)
	if err != nil {
		return nil, fmt.Errorf("replay spec: %w", err)
	}
	world := replayWorld(24, 1000)
	stream, err := spec.Generate(1, slots, 1.0, len(world.Hotspots), world.NumVideos)
	if err != nil {
		return nil, fmt.Errorf("generating replay stream: %w", err)
	}
	if !quick && stream.Total < 1_000_000 {
		return nil, fmt.Errorf("replay stream holds %d requests, below the 1M floor", stream.Total)
	}

	// Pre-encode every slot's ingest bodies once.
	bodies := make([][][]byte, len(stream.Slots))
	var scratch []byte
	for s, reqs := range stream.Slots {
		bodies[s] = make([][]byte, len(reqs))
		for i, r := range reqs {
			scratch = r.AppendJSON(scratch[:0])
			bodies[s][i] = append([]byte(nil), scratch...)
		}
	}

	var results []benchResult
	for _, instances := range []int{1, 2, 4, 8} {
		res, err := runServeReplay(world, bodies, stream.Total, instances)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		fmt.Printf("%-28s %12.0f ns/op %38d requests %12.0f req/s\n",
			res.Name, res.NsPerOp, res.Requests, res.ReqPerSec)
	}
	return results, nil
}

// replayBody adapts a resettable bytes.Reader to io.ReadCloser so each
// replay client reuses one request body end to end.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// runServeReplay drives the pre-encoded stream through one serving
// tier: per slot, the replay clients fan the bodies out round-robin
// across every frontend instance, then force the slot boundary
// (schedule + verified fan-out to all frontends) before the next slot.
func runServeReplay(world *trace.World, bodies [][][]byte, total int, instances int) (benchResult, error) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		World:      world,
		Instances:  instances,
		QueueBound: 1 << 30,
		Registry:   reg,
	})
	if err != nil {
		return benchResult{}, err
	}
	if err := srv.Start(); err != nil {
		return benchResult{}, err
	}
	defer srv.Close()
	handlers := make([]http.Handler, instances)
	for i := range handlers {
		handlers[i] = srv.InstanceHandler(i)
	}

	workers := runtime.GOMAXPROCS(0) * 2
	if workers > 8 {
		workers = 8
	}
	runtime.GC()
	start := time.Now()
	var firstErr error
	var errOnce sync.Once
	for slot := range bodies {
		slotBodies := bodies[slot]
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				nw := newNopResponseWriter()
				rd := bytes.NewReader(nil)
				req := httptest.NewRequest(http.MethodPost, "/ingest", nil)
				req.Body = replayBody{rd}
				for i := w; i < len(slotBodies); i += workers {
					rd.Reset(slotBodies[i])
					req.ContentLength = int64(len(slotBodies[i]))
					nw.reset()
					handlers[i%instances].ServeHTTP(nw, req)
					if nw.status != http.StatusAccepted {
						errOnce.Do(func() { firstErr = fmt.Errorf("slot %d: ingest status %d", slot, nw.status) })
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return benchResult{}, firstErr
		}
		if len(slotBodies) > 0 {
			if _, _, err := srv.AdvanceSlot(context.Background()); err != nil {
				return benchResult{}, fmt.Errorf("slot %d: advance: %w", slot, err)
			}
		}
	}
	elapsed := time.Since(start)

	// The run only counts if every frontend installed every epoch's
	// exact plan (the swap counter advances solely on digest-and-byte
	// verified installs).
	epochs := int64(len(srv.Plans()))
	for i := 0; i < instances; i++ {
		pfx := fmt.Sprintf("server.shard.%d.", i)
		if got := reg.Counter(pfx + "swaps").Value(); got != epochs {
			return benchResult{}, fmt.Errorf("instance %d verified %d swaps, want %d", i, got, epochs)
		}
		if got := reg.Counter(pfx + "plan_rejects").Value(); got != 0 {
			return benchResult{}, fmt.Errorf("instance %d rejected %d plans", i, got)
		}
	}
	if got := reg.Counter("server.ingest.accepted").Value(); got != int64(total) {
		return benchResult{}, fmt.Errorf("accepted %d of %d replayed requests", got, total)
	}

	return benchResult{
		Name:      fmt.Sprintf("ServeReplay/instances=%d", instances),
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(total),
		Requests:  int64(total),
		ReqPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// runSuite executes every benchmark and collects its artifact line.
// The GC barrier between lines keeps one benchmark's garbage from
// inflating the next one's numbers.
func runSuite(benches []namedBench) []benchResult {
	results := make([]benchResult, 0, len(benches))
	for _, nb := range benches {
		runtime.GC()
		r := testing.Benchmark(nb.fn)
		res := benchResult{
			Name:        nb.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		results = append(results, res)
		fmt.Printf("%-24s %12.0f ns/op %12d B/op %8d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	return results
}

// writeResults serialises the artifact.
func writeResults(path string, results []benchResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH_9.json", "path of the JSON benchmark artifact")
	quick := flag.Bool("quick", false, "shrink the schedule workload for smoke runs")
	only := flag.String("run", "", "run only benchmarks whose name contains this substring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	flag.Parse()

	benches, err := benchmarks(*quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdnbench: %v\n", err)
		os.Exit(1)
	}
	if *only != "" {
		kept := benches[:0]
		for _, nb := range benches {
			if strings.Contains(nb.name, *only) {
				kept = append(kept, nb)
			}
		}
		benches = kept
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdnbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cdnbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	results := runSuite(benches)
	if *only == "" || strings.Contains("ServeReplay/instances", *only) {
		replay, err := serveReplayBenches(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdnbench: %v\n", err)
			os.Exit(1)
		}
		results = append(results, replay...)
	}
	if err := writeResults(*out, results); err != nil {
		fmt.Fprintf(os.Stderr, "cdnbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(results))
}
