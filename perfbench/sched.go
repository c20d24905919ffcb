package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// sched-eval schedules evalWorlds eval-scale worlds of evalSlots slots
// each; every slot holds the paper's ~212k requests. Several small
// worlds rather than one long one average out how much a single
// generated world moves the quality and timing figures from seed to
// seed, while two slots per world keep replica carry-over in play.
const (
	evalWorlds = 4
	evalSlots  = 2
	// minSlots is how many slots an untraced run measures at least, so
	// its p90 has ten slots beyond it.
	minSlots = 100
)

// evalTrace generates the eval-scale world (310 hotspots, 15,190
// videos) and a trace of slots × perSlot requests from seed.
func evalTrace(seed int64, slots, perSlot int) (*trace.World, *trace.Trace, error) {
	tc := trace.EvalConfig()
	tc.Seed = seed
	tc.Slots = slots
	tc.NumRequests = perSlot * slots
	return trace.Generate(tc)
}

// slotRecord is one simulated slot as the benchmark saw it.
type slotRecord struct {
	slot int
	// op is the slot's whole simulated time: from the previous slot's
	// publish (or the pass start) to this slot's publish.
	op time.Duration
	// round, encode and verify make up the publish time.
	round, encode, verify time.Duration
	digest                uint64
	planBytes             int
	stats                 core.Stats
	// Traced passes only.
	allocs, allocBytes     uint64
	topFrac, distMat, aggl time.Duration
}

func (s slotRecord) publish() time.Duration { return s.round + s.encode + s.verify }

// timingScheduler wraps RBCAer as a sim.Scheduler and, through its
// plan sink, runs the server's slot-publish steps on every plan:
// Canonical, DigestOf, then one verify (ParseCanonical and a re-encode
// byte compare). It times each call from outside and, when traced,
// records spans, allocation deltas and a replay of the clustering
// calls.
type timingScheduler struct {
	inner  *scheme.RBCAer
	params core.Params
	tr     *tracer
	traced bool

	last     time.Time // end of the previous slot, or the pass start
	schedAt  time.Time
	schedEnd time.Time
	ctx      *sim.SlotContext
	cur      slotRecord
	recs     []slotRecord
	err      error
}

func newTimingScheduler(params core.Params) *timingScheduler {
	return &timingScheduler{inner: scheme.NewRBCAer(params), params: params}
}

func (s *timingScheduler) Name() string { return s.inner.Name() }

func (s *timingScheduler) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	var m0, m1 runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	asg, err := s.inner.Schedule(ctx)
	end := time.Now()
	if s.traced {
		runtime.ReadMemStats(&m1)
	}
	s.schedAt, s.schedEnd, s.ctx = start, end, ctx
	s.cur = slotRecord{slot: ctx.Slot, round: end.Sub(start)}
	if s.traced {
		s.cur.allocs = m1.Mallocs - m0.Mallocs
		s.cur.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	return asg, err
}

// sink is the sim.Options.PlanSink: it publishes the plan the way the
// server does and closes the slot's timeline.
func (s *timingScheduler) sink(slot int, plan *core.Plan) {
	t0 := time.Now()
	canonical := plan.Canonical()
	digest := core.DigestOf(canonical)
	t1 := time.Now()
	err := verifyCanonical(canonical, digest)
	t2 := time.Now()
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("slot %d: %w", slot, err)
	}
	rec := s.cur
	rec.encode, rec.verify = t1.Sub(t0), t2.Sub(t1)
	rec.op = t2.Sub(s.last)
	rec.digest, rec.planBytes, rec.stats = digest, len(canonical), plan.Stats

	if s.tr != nil {
		root := s.tr.add("slot", s.last, t2, -1, int64(slot))
		s.tr.add("sim.prepare", s.last, s.schedAt, root, int64(slot))
		s.tr.add("core.round", s.schedAt, s.schedEnd, root, int64(slot))
		s.tr.add("sim.apply", s.schedEnd, t0, root, int64(slot))
		s.tr.add("plan.encode", t0, t1, root, int64(slot))
		s.tr.add("plan.verify", t1, t2, root, int64(slot))
	}
	if s.traced && plan.Stats.MaxFlow > 0 && !s.params.DisableGuides {
		// Replay contentClusters' public calls on the slot's demand,
		// outside the slot's timeline, and cross-check the cut.
		clusters, err := s.replayClusters(slot, &rec)
		if err == nil && clusters != plan.Stats.Clusters {
			err = fmt.Errorf("replayed clustering found %d clusters, the round %d", clusters, plan.Stats.Clusters)
		}
		if err != nil && s.err == nil {
			s.err = fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	s.recs = append(s.recs, rec)
	s.last = time.Now()
}

// verifyCanonical is the receive-side check every frontend runs before
// installing a plan: digest, strict parse, byte-identical re-encode.
func verifyCanonical(canonical []byte, digest uint64) error {
	if got := core.DigestOf(canonical); got != digest {
		return fmt.Errorf("plan digest %016x, advertised %016x", got, digest)
	}
	parsed, err := core.ParseCanonical(canonical)
	if err != nil {
		return err
	}
	if !bytes.Equal(parsed.Canonical(), canonical) {
		return errors.New("plan bytes did not round-trip")
	}
	return nil
}

// replayClusters repeats core's content clustering (top-fraction
// signatures, Jaccard distance matrix, agglomerative cut) through the
// packages' public functions, timing each step.
func (s *timingScheduler) replayClusters(slot int, rec *slotRecord) (int, error) {
	d := s.ctx.Demand
	t0 := time.Now()
	sets := make([]similarity.Set, len(d.PerVideo))
	counts := map[int]int64{}
	for h, row := range d.PerVideo {
		clear(counts)
		for v, n := range row {
			counts[int(v)] = n
		}
		set, err := similarity.TopFraction(counts, s.params.TopFraction)
		if err != nil {
			return 0, err
		}
		sets[h] = set
	}
	t1 := time.Now()
	dist := similarity.DistanceMatrix(sets, workers())
	t2 := time.Now()
	dendro, err := cluster.AgglomerativeMatrix(dist, s.params.Linkage)
	if err != nil {
		return 0, err
	}
	groups := dendro.Cut(s.params.ClusterCut)
	t3 := time.Now()
	rec.topFrac, rec.distMat, rec.aggl = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if s.tr != nil {
		root := s.tr.add("replay", t0, t3, -1, int64(slot))
		s.tr.add("similarity.top_fraction", t0, t1, root, int64(slot))
		s.tr.add("similarity.distance_matrix", t1, t2, root, int64(slot))
		s.tr.add("cluster.agglomerative", t2, t3, root, int64(slot))
	}
	return len(groups), nil
}

// pass runs sim.Run once over the trace and returns its metrics plus
// the slots it recorded.
func (s *timingScheduler) pass(world *trace.World, tr *trace.Trace, seed int64) (*sim.Metrics, []slotRecord, error) {
	s.recs, s.err = nil, nil
	s.last = time.Now()
	m, err := sim.Run(world, tr, s, sim.Options{Seed: seed, PlanSink: s.sink})
	if err != nil {
		return nil, nil, err
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	return m, s.recs, nil
}

// schedParams is RBCAer at the paper's parameters with workers = nproc.
func schedParams() core.Params {
	p := core.DefaultParams()
	p.Workers = workers()
	return p
}

// evalInput is one generated world with its trace and its own policy
// (RBCAer rebuilds its core scheduler whenever the world changes).
type evalInput struct {
	world *trace.World
	tr    *trace.Trace
	ts    *timingScheduler
	seed  int64
	// tracedTS schedules the traced passes, with Params.Obs set.
	tracedTS *timingScheduler
}

// warm runs the input's first slot once, so the policy has built its
// core scheduler before anything is timed.
func (in *evalInput) warm(ts *timingScheduler) error {
	warm := &trace.Trace{Slots: 1, Requests: in.tr.BySlot()[0]}
	_, _, err := ts.pass(in.world, warm, in.seed)
	return err
}

// schedSetup builds the eval inputs and warmed policies: trace
// generation, each world's spatial index, the schedulers, and one
// warm-up slot per world.
func schedSetup(seed int64) ([]*evalInput, time.Duration, error) {
	start := time.Now()
	var ins []*evalInput
	for k := 0; k < evalWorlds; k++ {
		in := &evalInput{seed: seed*evalWorlds + int64(k)}
		var err error
		in.world, in.tr, err = evalTrace(in.seed, evalSlots, trace.EvalConfig().NumRequests)
		if err != nil {
			return nil, 0, err
		}
		in.ts = newTimingScheduler(schedParams())
		if err := in.warm(in.ts); err != nil {
			return nil, 0, err
		}
		ins = append(ins, in)
	}
	return ins, time.Since(start), nil
}

// setupRepeats is how many times sched-eval sets up; setup_s is the
// median.
const setupRepeats = 3

// evalPass is one sim.Run over every world.
type evalPass struct {
	recs     []slotRecord
	digests  []uint64
	quality  [3]float64 // serving ratio, access km, replication cost; mean over worlds
	requests int64
	wall     time.Duration
}

func runEvalPass(ins []*evalInput, traced bool) (evalPass, error) {
	var p evalPass
	for _, in := range ins {
		ts := in.ts
		if traced {
			ts = in.tracedTS
		}
		start := time.Now()
		m, recs, err := ts.pass(in.world, in.tr, in.seed)
		if err != nil {
			return p, err
		}
		p.wall += time.Since(start)
		p.requests += m.TotalRequests
		p.recs = append(p.recs, recs...)
		for _, rec := range recs {
			p.digests = append(p.digests, rec.digest)
		}
		p.quality[0] += m.HotspotServingRatio / float64(len(ins))
		p.quality[1] += m.AvgAccessDistanceKm / float64(len(ins))
		p.quality[2] += m.ReplicationCost / float64(len(ins))
	}
	return p, nil
}

func runSchedEval(cfg config, r *report) error {
	var ins []*evalInput
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		ins = nil
		runtime.GC()
		got, took, err := schedSetup(cfg.seed)
		if err != nil {
			return err
		}
		ins = got
		setups = append(setups, took.Seconds())
	}
	r.setE2E("setup_s", "s", median(setups))
	r.note("inputs: %d worlds of %d hotspots, %d videos, %d slots x %d requests; workers %d",
		len(ins), len(ins[0].world.Hotspots), ins[0].world.NumVideos, evalSlots, len(ins[0].tr.Requests)/evalSlots, workers())

	// A traced run spends its first third untraced, for the tracing
	// overhead and the digest comparison, and reports no end-to-end
	// figures; an untraced run also measures at least minSlots slots.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	untracedFor, need := budget, minSlots
	if cfg.trace {
		untracedFor, need = budget/3, 0
	}
	var (
		first    *evalPass
		passErr  error
		plain    []slotRecord
		wall     time.Duration
		requests int64
	)
	measureStart := time.Now()
	runPasses := func(until time.Time, need int, traced bool, out *[]slotRecord) error {
		for len(*out) < need || time.Now().Before(until) {
			p, err := runEvalPass(ins, traced)
			if err != nil {
				return err
			}
			if first == nil {
				first = &p
			} else if err := samePass(first, &p); err != nil && passErr == nil {
				passErr = err
			}
			*out = append(*out, p.recs...)
			if !traced {
				wall += p.wall
				requests += p.requests
			}
		}
		return nil
	}
	if err := runPasses(measureStart.Add(untracedFor), need, false, &plain); err != nil {
		return err
	}

	var traced []slotRecord
	if cfg.trace {
		reg := obs.NewRegistry()
		tr := newTracer()
		params := schedParams()
		params.Obs = reg
		for _, in := range ins {
			in.tracedTS = newTimingScheduler(params)
			if err := in.warm(in.tracedTS); err != nil {
				return err
			}
			in.tracedTS.tr, in.tracedTS.traced = tr, true
		}
		gc0 := gcPause()
		if err := runPasses(measureStart.Add(budget), 0, true, &traced); err != nil {
			return err
		}
		r.setLayer("go.gc_pause_ms", "ms", ms(gcPause()-gc0))
		schedLayers(r, traced, reg)
		r.setLayer("trace.overhead_ms", "ms", median(opMillis(traced))-median(opMillis(plain)))
		share := namedShare(tr.spans, "slot")
		r.setLayer("trace.named_share", "ratio", share)
		r.setLayer("trace.spans", "count", float64(len(tr.spans)))
		var err error
		if share < 0.9 {
			err = fmt.Errorf("named spans cover %.1f%% of slot time, want >= 90%%", 100*share)
		}
		r.check("named_spans_cover_slot", err)
		printLayerTable(os.Stdout, tr.spans)
		if err := tr.writeJSONL(tracePath(cfg)); err != nil {
			return err
		}
		r.note("spans written to %s", tracePath(cfg))
	}
	r.check("passes_identical", passErr)

	pub := make([]float64, len(plain))
	for i, rec := range plain {
		pub[i] = ms(rec.publish())
	}
	ops := opMillis(plain)
	p90, err := tailAt(append([]float64(nil), pub...), 0.9)
	if err != nil && !cfg.trace {
		r.check("enough_slots", err)
	}
	opTail, _ := tailAt(append([]float64(nil), ops...), 0.9)
	r.setE2E("slot_p50_ms", "ms", median(pub))
	r.setE2E("slot_p90_ms", "ms", p90)
	r.setE2E("op_p50_ms", "ms", median(ops))
	r.setE2E("op_tail_ms", "ms", opTail)
	r.setE2E("capacity_rps", "1/s", float64(requests)/wall.Seconds())
	r.setE2E("serving_ratio", "ratio", first.quality[0])
	r.setE2E("access_km", "km", first.quality[1])
	r.setE2E("replication_cost", "ratio", first.quality[2])
	r.setE2E("max_rss_mb", "MB", maxRSSMB())
	r.attempted = int64(len(plain) + len(traced))
	r.note("%d slots measured untraced (%d traced)", len(plain), len(traced))
	r.check("golden", checkSchedGolden(cfg.seed, first))
	return nil
}

// samePass checks a repeated pass, traced or not, reproduced the
// first one exactly.
func samePass(first, p *evalPass) error {
	if p.quality != first.quality {
		return errors.New("paper metrics differ between passes")
	}
	if len(p.digests) != len(first.digests) {
		return fmt.Errorf("%d slots in a pass, the first had %d", len(p.digests), len(first.digests))
	}
	for i, d := range p.digests {
		if d != first.digests[i] {
			return fmt.Errorf("slot %d digest %016x, first pass %016x", i, d, first.digests[i])
		}
	}
	return nil
}

func opMillis(recs []slotRecord) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = ms(rec.op)
	}
	return out
}

// schedLayers reduces traced slot records and the core counters to
// the per-layer metrics.
func schedLayers(r *report, recs []slotRecord, reg *obs.Registry) {
	n := float64(len(recs))
	var allocs, bytes, planBytes float64
	var enc, ver, top, dm, ag, simOver []float64
	var cl, bal, rep time.Duration
	for _, rec := range recs {
		allocs += float64(rec.allocs)
		bytes += float64(rec.allocBytes)
		planBytes += float64(rec.planBytes)
		enc = append(enc, ms(rec.encode))
		ver = append(ver, ms(rec.verify))
		top = append(top, ms(rec.topFrac))
		dm = append(dm, ms(rec.distMat))
		ag = append(ag, ms(rec.aggl))
		simOver = append(simOver, ms(rec.op-rec.publish()))
		cl += rec.stats.Phases.Cluster
		bal += rec.stats.Phases.Balance
		rep += rec.stats.Phases.Replicate
	}
	r.setLayer("core.phase.cluster_ms", "ms", ms(cl)/n)
	r.setLayer("core.phase.balance_ms", "ms", ms(bal)/n)
	r.setLayer("core.phase.replicate_ms", "ms", ms(rep)/n)
	r.setLayer("core.allocs_per_round", "count", allocs/n)
	r.setLayer("core.bytes_per_round", "bytes", bytes/n)
	coreCounters(r, reg)
	r.setLayer("similarity.top_fraction_ms", "ms", median(top))
	r.setLayer("similarity.distance_matrix_ms", "ms", median(dm))
	r.setLayer("cluster.agglomerative_ms", "ms", median(ag))
	r.setLayer("plan.encode_ms", "ms", median(enc))
	r.setLayer("plan.verify_ms", "ms", median(ver))
	r.setLayer("plan.bytes", "bytes", planBytes/n)
	r.setLayer("sim.overhead_ms_per_slot", "ms", median(simOver))
}

// coreCounters reads the per-round core counters from the registry
// the scheduler published into.
func coreCounters(r *report, reg *obs.Registry) {
	rounds := float64(reg.Counter("core.rounds").Value())
	r.setLayer("core.moved_over_max_flow", "ratio",
		ratio(float64(reg.Counter("core.moved_flow").Value()), float64(reg.Counter("core.max_flow").Value())))
	r.setLayer("core.mcmf_paths", "count", ratio(float64(reg.Counter("core.mcmf_paths").Value()), rounds))
	r.setLayer("core.theta_iterations", "count", ratio(float64(reg.Counter("core.theta_iterations").Value()), rounds))
}
