package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// serveSpec is what distinguishes the two serving workloads.
type serveSpec struct {
	instances int
	// rate is the open-loop phase's offered operations per second, well
	// below the closed-loop capacity measured on a 2-core VM.
	rate float64
	// lookups pairs every ingest with a redirect lookup and sends x/y
	// bodies (nearest-hotspot resolution); otherwise ingests carry
	// {"hotspot":h} and nothing is looked up.
	lookups bool
	// fsync is the WAL policy; "" runs without a WAL.
	fsync string
}

var (
	serveMixed = serveSpec{instances: 2, rate: 2000, lookups: true}
	// ingestDurable runs fsync=interval: under fsync=always the
	// closed-loop capacity swung between 3.1k and 5.7k req/s from run to
	// run with disk fsync jitter, wider than any bound the benchmark
	// could hold. Interval keeps WAL encode, write, checkpoint and
	// recovery in play.
	ingestDurable = serveSpec{instances: 1, rate: 2000, fsync: "interval"}
)

func runServeMixed(cfg config, r *report) error    { return runServe(cfg, serveMixed, r) }
func runIngestDurable(cfg config, r *report) error { return runServe(cfg, ingestDurable, r) }

// serveEnv is one booted serving tier plus the generated traffic.
type serveEnv struct {
	spec   serveSpec
	world  *trace.World
	reqs   []trace.Request
	bodies [][]byte
	reg    *obs.Registry
	srv    *server.Server
	scfg   server.Config
	walDir string
	bases  []string
	conns  []*connState

	// slot labels accepted requests with the slot the advancer has open.
	slot atomic.Int32
	// firstPlan is when the first plan went live (unix ns; 0 before).
	firstPlan atomic.Int64
	// tr records advance and recovery spans for a whole traced run;
	// opTr records operation spans during the traced open-loop phase.
	tr, opTr *tracer
	// warm is the plan set-up's warm-up slot published.
	warm server.PlanRecord
}

// connState is one client connection's state; only its own worker
// goroutine touches it.
type connState struct {
	c    *http.Client
	base string
	buf  []byte
	// stamps are the (epoch, digest) pairs lookups were answered with.
	stamps map[[2]uint64]bool
	// unstamped counts lookups sent after the first plan went live
	// that carried no stamp.
	unstamped int
	accepted  int64
	failed    int64
	sent      int64
}

// serveInputs generates the eval world and one slot's worth (~212k)
// of user requests, and encodes every request body.
func serveInputs(seed int64, spec serveSpec) (*trace.World, []trace.Request, [][]byte, error) {
	world, tr, err := evalTrace(seed, 1, trace.EvalConfig().NumRequests)
	if err != nil {
		return nil, nil, nil, err
	}
	index, err := world.Index()
	if err != nil {
		return nil, nil, nil, err
	}
	bodies := make([][]byte, len(tr.Requests))
	for i, q := range tr.Requests {
		h, _, _ := index.Nearest(q.Location)
		b := []byte(`{"user":`)
		b = strconv.AppendInt(b, int64(q.User), 10)
		b = append(b, `,"video":`...)
		b = strconv.AppendInt(b, int64(q.Video), 10)
		if spec.lookups {
			b = append(b, `,"x":`...)
			b = strconv.AppendFloat(b, q.Location.X, 'g', -1, 64)
			b = append(b, `,"y":`...)
			b = strconv.AppendFloat(b, q.Location.Y, 'g', -1, 64)
		} else {
			b = append(b, `,"hotspot":`...)
			b = strconv.AppendInt(b, int64(h), 10)
		}
		bodies[i] = append(b, '}')
	}
	return world, tr.Requests, bodies, nil
}

// bootServer builds and starts the serving tier (the timed part of
// set-up) and warms it with a few operations and one slot.
func (e *serveEnv) bootServer(traced bool) error {
	e.reg = obs.NewRegistry()
	params := schedParams()
	if traced {
		params.Obs = e.reg
	}
	e.scfg = server.Config{
		World:       e.world,
		Params:      params,
		Addr:        "127.0.0.1:0",
		Instances:   e.spec.instances,
		PlanHistory: 4,
		Registry:    e.reg,
	}
	if e.spec.fsync != "" {
		e.scfg.WALDir, e.scfg.Fsync = e.walDir, e.spec.fsync
	}
	srv, err := server.New(e.scfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		srv.Kill()
		return err
	}
	e.srv = srv
	e.bases = nil
	for _, a := range srv.InstanceAddrs() {
		e.bases = append(e.bases, "http://"+a)
	}
	e.conns = nil
	for c := 0; c < workers(); c++ {
		e.conns = append(e.conns, &connState{c: newConn(), base: e.bases[c%len(e.bases)], stamps: map[[2]uint64]bool{}})
	}
	for i := 0; i < warmOps; i++ {
		var rec opRec
		e.op(i%len(e.conns), len(e.reqs)-1-i, &rec)
		if !rec.ok {
			return errors.New("warm-up operation failed")
		}
	}
	_, rec, err := srv.AdvanceSlot(context.Background())
	if err != nil {
		return err
	}
	e.warm = rec
	for _, cs := range e.conns {
		cs.accepted, cs.sent, cs.failed = 0, 0, 0
	}
	return nil
}

// op performs user operation i: POST /ingest, then, in serve-mixed,
// GET /redirect for the same video at the hotspot the ingest resolved.
func (e *serveEnv) op(conn, i int, rec *opRec) {
	cs := e.conns[conn]
	k := i % len(e.reqs)
	rec.req, rec.slot = int32(k), -1
	var root int
	if e.opTr != nil {
		root = e.opTr.reserve("op", int64(i))
		if !rec.due.IsZero() {
			e.opTr.add("loadgen.wait", rec.due, rec.picked, root, int64(i))
		}
	}
	t0 := time.Now()
	req, _ := http.NewRequest(http.MethodPost, cs.base+"/ingest", bytes.NewReader(e.bodies[k]))
	req.Header.Set("Content-Type", "application/json")
	var err error
	cs.sent++
	cs.buf, err = call(cs.c, req, http.StatusAccepted, cs.buf)
	t1 := time.Now()
	rec.legs[0], rec.nLegs = t1.Sub(t0), 1
	e.opTr.add("http.ingest", t0, t1, root, int64(i))
	if err != nil {
		cs.failed++
		e.finishOp(rec, root, t1)
		return
	}
	cs.accepted++
	rec.slot = e.slot.Load()
	if !e.spec.lookups {
		rec.ok = true
		e.finishOp(rec, root, t1)
		return
	}
	h, ok := intField(cs.buf, `"hotspot":`)
	if !ok {
		cs.failed++
		e.finishOp(rec, root, t1)
		return
	}
	url := cs.base + "/redirect?video=" + strconv.Itoa(int(e.reqs[k].Video)) + "&hotspot=" + strconv.FormatInt(h, 10)
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	live := e.firstPlan.Load()
	t2 := time.Now()
	cs.sent++
	cs.buf, err = call(cs.c, req, http.StatusOK, cs.buf)
	t3 := time.Now()
	rec.legs[1], rec.nLegs = t3.Sub(t2), 2
	e.opTr.add("http.lookup", t2, t3, root, int64(i))
	if err != nil {
		cs.failed++
		e.finishOp(rec, root, t3)
		return
	}
	epoch, okE := intField(cs.buf, `"epoch":`)
	digest, okD := hexField(cs.buf, `"digest":"`)
	switch {
	case okE && okD:
		cs.stamps[[2]uint64{uint64(epoch), digest}] = true
	case live != 0:
		cs.unstamped++
	}
	rec.ok = true
	e.finishOp(rec, root, t3)
}

func (e *serveEnv) finishOp(rec *opRec, root int, end time.Time) {
	if e.opTr == nil {
		return
	}
	start := rec.due
	if start.IsZero() {
		start = rec.picked
	}
	e.opTr.finish(root, start, end)
}

// intField parses the integer following key in a JSON body.
func intField(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && (b[j] == '-' || (b[j] >= '0' && b[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseInt(string(b[:j]), 10, 64)
	return v, err == nil
}

// hexField parses the hex string following key in a JSON body.
func hexField(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[:j]), 16, 64)
	return v, err == nil
}

// advancer closes a slot on a fixed cadence under load and checks that
// every frontend then serves the plan AdvanceSlot reported.
type advancer struct {
	mu        sync.Mutex // guards lat while the advancer runs
	lat       []float64
	published map[[2]uint64]bool
	failed    int
	err       error
}

func (e *serveEnv) runAdvancer(stop <-chan struct{}, every time.Duration, a *advancer) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		e.advanceOnce(a)
	}
}

func (e *serveEnv) advanceOnce(a *advancer) {
	e.slot.Add(1)
	start := time.Now()
	_, rec, err := e.srv.AdvanceSlot(context.Background())
	end := time.Now()
	e.tr.add("server.advance", start, end, -1, int64(e.slot.Load()))
	if err != nil {
		a.failed++
		if a.err == nil {
			a.err = err
		}
		return
	}
	a.mu.Lock()
	a.lat = append(a.lat, ms(end.Sub(start)))
	a.mu.Unlock()
	if rec.Epoch == 0 {
		return
	}
	d, err := strconv.ParseUint(rec.Digest, 16, 64)
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("advance returned digest %q", rec.Digest)
	}
	a.published[[2]uint64{uint64(rec.Epoch), d}] = true
	e.firstPlan.CompareAndSwap(0, end.UnixNano())
	for i := 0; i < e.srv.NumInstances(); i++ {
		if ep, dg := e.srv.InstanceEpochDigest(i); ep != rec.Epoch || dg != rec.Digest {
			if a.err == nil {
				a.err = fmt.Errorf("frontend %d serves epoch %d digest %s after the advance published epoch %d digest %s",
					i, ep, dg, rec.Epoch, rec.Digest)
			}
		}
	}
}

// slotEvery is the advance cadence: enough slots in the open-loop half
// of a run for a p90 (120 ms at the committed 30-second runs).
func slotEvery(seconds float64) time.Duration {
	return time.Duration(seconds / 2 / 125 * float64(time.Second))
}

// serveSetupRepeats is how many times a serving workload sets up; a
// set-up takes only ~0.2 s, so more repeats steady its median.
const serveSetupRepeats = 5

func runServe(cfg config, spec serveSpec, r *report) error {
	e := &serveEnv{spec: spec}
	if spec.fsync != "" {
		e.walDir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d", cfg.workload, os.Getpid()))
		defer os.RemoveAll(e.walDir)
	}
	var setups []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if e.srv != nil {
			e.srv.Kill()
			e.srv = nil
		}
		if e.walDir != "" {
			if err := os.RemoveAll(e.walDir); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		world, reqs, bodies, err := serveInputs(cfg.seed, spec)
		if err != nil {
			return err
		}
		e.world, e.reqs, e.bodies = world, reqs, bodies
		if err := e.bootServer(cfg.trace); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.setE2E("setup_s", "s", median(setups))
	e.slot.Store(0)
	r.note("eval world: %d hotspots, %d videos; %d frontends, %d connections, WAL %q",
		len(e.world.Hotspots), e.world.NumVideos, spec.instances, len(e.conns), spec.fsync)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		e.tr = newTracer()
	}
	adv := &advancer{published: map[[2]uint64]bool{}}
	if d, err := strconv.ParseUint(e.warm.Digest, 16, 64); err == nil && e.warm.Epoch > 0 {
		adv.published[[2]uint64{uint64(e.warm.Epoch), d}] = true
		e.firstPlan.Store(time.Now().UnixNano())
	}
	stop := make(chan struct{})
	var advWG sync.WaitGroup
	advWG.Add(1)
	go func() {
		defer advWG.Done()
		e.runAdvancer(stop, slotEvery(cfg.seconds), adv)
	}()

	gc0, measureStart := gcPause(), time.Now()
	// Open loop (half the budget), then closed loop (the other half).
	// A traced run traces the second quarter, so the first gives its
	// untraced baseline.
	var open, openTraced openResult
	if cfg.trace {
		open = openLoop(len(e.conns), spec.rate, budget/4, e.op)
		e.opTr = e.tr
		openTraced = openLoop(len(e.conns), spec.rate, budget/4, e.op)
		e.opTr = nil
	} else {
		open = openLoop(len(e.conns), spec.rate, budget/2, e.op)
	}
	// Slot latencies count from the open-loop phase only: there the
	// offered load, and so each slot's demand, is the same on every run.
	adv.mu.Lock()
	openSlots := len(adv.lat)
	adv.mu.Unlock()
	cpu0 := cpuTime()
	closed := closedLoop(len(e.conns), budget/2, len(open.recs)+len(openTraced.recs), e.op)
	cpu := cpuTime() - cpu0
	close(stop)
	advWG.Wait()
	gcMS := ms(gcPause() - gc0)
	measured := time.Since(measureStart)
	// Peak memory of the serving run itself, before the checks and the
	// offline replay allocate on the benchmark's side.
	r.setE2E("max_rss_mb", "MB", maxRSSMB())

	var sent, failed, accepted int64
	unstamped := 0
	stamps := map[[2]uint64]bool{}
	for _, cs := range e.conns {
		sent += cs.sent
		failed += cs.failed
		accepted += cs.accepted
		unstamped += cs.unstamped
		for k := range cs.stamps {
			stamps[k] = true
		}
	}
	r.attempted = sent + int64(len(adv.lat)+adv.failed)
	r.failed = failed + int64(adv.failed)
	r.note("measured %.1f s: %d HTTP requests, %d failed, %d slots", measured.Seconds(), sent, failed, len(adv.lat))

	// Latency of the open-loop phase, from due time.
	lats := make([]float64, len(open.recs))
	for i := range open.recs {
		lats[i] = open.recs[i].latency()
	}
	// Many short windows: the median of their quantiles shrugs off the
	// bursts (a GC cycle, a neighbour's load) that move one pooled tail.
	const windows = 25
	if _, err := tailAt(lats[:len(lats)/windows], 0.9); err != nil && !cfg.trace {
		r.check("enough_operations", err)
	}
	r.setE2E("op_p50_ms", "ms", windowed(lats, windows, 0.5))
	r.setE2E("op_tail_ms", "ms", windowed(lats, windows, 0.9))
	r.setE2E("capacity_rps", "1/s", windowRates(closed.recs, closed.start, closed.duration, windows))
	slotLat := append([]float64(nil), adv.lat[:openSlots]...)
	p90, err := tailAt(slotLat, 0.9)
	if err != nil && !cfg.trace {
		r.check("enough_slots", err)
	}
	r.setE2E("slot_p50_ms", "ms", median(slotLat))
	r.setE2E("slot_p90_ms", "ms", p90)

	lag := quantile(append([]float64(nil), open.lag...), 0.99)
	offered, achieved := spec.rate, float64(len(open.recs))/open.elapsed.Seconds()
	r.note("open loop: offered %.0f op/s, achieved %.0f op/s, generator lag p99 %.3f ms", offered, achieved, lag)
	if lag > maxGenLag {
		r.check("generator_on_time", fmt.Errorf("%w: p99 %.3f ms past due, bound %.1f ms", errLate, lag, maxGenLag))
	} else {
		r.check("generator_on_time", nil)
	}

	// Output checks.
	srvAccepted := e.reg.Counter("server.ingest.accepted").Value()
	r.check("client_202_eq_accepted", eqErr("client 202s", accepted+warmOps, "server.ingest.accepted", srvAccepted))
	r.check("plan_rejects_zero", eqErr("server.plan.rejects", e.reg.Counter("server.plan.rejects").Value(), "zero", 0))
	r.check("frontends_agree_after_advance", adv.err)
	if spec.lookups {
		var stampErr error
		if unstamped > 0 {
			stampErr = fmt.Errorf("%d lookups after the first plan carried no stamp", unstamped)
		}
		for k := range stamps {
			if !adv.published[k] && stampErr == nil {
				stampErr = fmt.Errorf("lookup stamped epoch %d digest %016x, never published", k[0], k[1])
			}
		}
		r.check("lookups_stamped_published", stampErr)
	}

	if spec.fsync != "" {
		if err := e.closeRecover(r, accepted+warmOps); err != nil {
			return err
		}
	} else {
		e.srv.Close()
	}

	if err := e.twin(cfg, r, open.recs); err != nil {
		return err
	}

	if cfg.trace {
		serveLayers(r, e, openTraced, closed, cpu, gcMS)
		base := make([]float64, len(open.recs))
		for i := range open.recs {
			base[i] = open.recs[i].latency()
		}
		tl := make([]float64, len(openTraced.recs))
		for i := range openTraced.recs {
			tl[i] = openTraced.recs[i].latency()
		}
		r.setLayer("trace.overhead_ms", "ms", median(tl)-median(base))
		r.setLayer("loadgen.gen_lag_p99_ms", "ms", lag)
		r.setLayer("loadgen.offered_rps", "1/s", offered)
		r.setLayer("loadgen.achieved_rps", "1/s", achieved)
		r.setLayer("trace.spans", "count", float64(len(e.tr.spans)))
		printLayerTable(os.Stdout, e.tr.spans)
		if err := e.tr.writeJSONL(tracePath(cfg)); err != nil {
			return err
		}
		r.note("spans written to %s", tracePath(cfg))
	}
	return nil
}

func eqErr(aName string, a int64, bName string, b int64) error {
	if a != b {
		return fmt.Errorf("%s = %d, %s = %d", aName, a, bName, b)
	}
	return nil
}

// warmOps is how many operations set-up sends before its warm-up slot.
const warmOps = 64

// closeRecover closes the durable server gracefully (its final flush
// schedules every accepted ingest and seals the log with a
// checkpoint), times server.New recovering the same directory, and
// checks the recovered state holds every acknowledged ingest and the
// last published plan. acked counts every 202 since boot.
func (e *serveEnv) closeRecover(r *report, acked int64) error {
	if err := e.srv.Close(); err != nil {
		return fmt.Errorf("closing the durable server: %w", err)
	}
	plans := e.srv.Plans()
	drained := e.reg.Histogram("server.slot.requests", obs.PowersOf2Buckets(24)).Sum()
	start := time.Now()
	srv, err := server.New(e.scfg)
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("recovering the WAL: %w", err)
	}
	e.tr.add("wal.recover", start, start.Add(took), -1, 0)
	st := srv.WALState()
	var rerr error
	switch {
	case st == nil || len(plans) == 0:
		rerr = errors.New("recovery found no durable plan")
	case drained != acked:
		rerr = fmt.Errorf("%d ingests acknowledged, %d scheduled before shutdown", acked, drained)
	case st.PendingRequests != 0 || len(st.Queue) != 0:
		rerr = fmt.Errorf("recovered %d pending ingests and %d queued slots after a graceful close", st.PendingRequests, len(st.Queue))
	case st.Plan == nil || fmt.Sprintf("%016x", st.Plan.Digest) != plans[len(plans)-1].Digest:
		rerr = fmt.Errorf("recovered plan is not the last published (digest %s)", plans[len(plans)-1].Digest)
	}
	r.check("recovery_restores_acked", rerr)
	srv.Kill()
	if st != nil {
		r.setLayer("wal.recovery_records_per_s", "1/s", float64(st.Records)/took.Seconds())
	}
	r.setLayer("wal.recover_ms", "ms", ms(took))
	return nil
}

// serveLayers reduces the traced open-loop phase and the registry to
// the serving per-layer metrics.
func serveLayers(r *report, e *serveEnv, traced openResult, closed closedResult, cpu time.Duration, gcMS float64) {
	var ing, look, wait []float64
	for i := range traced.recs {
		rec := &traced.recs[i]
		wait = append(wait, ms(rec.picked.Sub(rec.due)))
		if rec.nLegs >= 1 {
			ing = append(ing, ms(rec.legs[0]))
		}
		if rec.nLegs >= 2 {
			look = append(look, ms(rec.legs[1]))
		}
	}
	var httpReqs float64
	for i := range closed.recs {
		httpReqs += float64(closed.recs[i].nLegs)
	}
	r.setLayer("server.cpu_us_per_req", "us", ratio(float64(cpu.Microseconds()), httpReqs))
	r.setLayer("http.ingest_service_ms", "ms", quantile(append([]float64(nil), ing...), 0.5))
	r.setLayer("http.ingest_p99_ms", "ms", quantile(ing, 0.99))
	if len(look) > 0 {
		r.setLayer("http.lookup_service_ms", "ms", quantile(append([]float64(nil), look...), 0.5))
		r.setLayer("http.lookup_p99_ms", "ms", quantile(look, 0.99))
	}
	r.setLayer("loadgen.conn_wait_ms", "ms", mean(wait))

	reg := e.reg
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	accepted := c("server.ingest.accepted")
	var forwarded float64
	for i := 0; i < e.spec.instances; i++ {
		forwarded += c(fmt.Sprintf("server.shard.%d.forwarded", i))
	}
	r.setLayer("server.forwarded_share", "ratio", ratio(forwarded, accepted))
	lookups := c("server.lookup.total")
	r.setLayer("server.lookup.local_share", "ratio", ratio(c("server.lookup.local"), lookups))
	r.setLayer("server.lookup.redirected_share", "ratio", ratio(c("server.lookup.redirected"), lookups))
	r.setLayer("server.lookup.cdn_share", "ratio", ratio(c("server.lookup.cdn"), lookups))
	sched := reg.Timer("server.slot.schedule")
	r.setLayer("server.slot.schedule_ms", "ms", ratio(ms(sched.Total()), float64(sched.Count())))
	r.setLayer("server.plan.rejects", "count", c("server.plan.rejects"))
	r.setLayer("server.slots.coalesced", "count", c("server.slots.coalesced"))
	r.setLayer("go.gc_pause_ms", "ms", gcMS)

	rounds := c("core.rounds")
	for _, ph := range []string{"cluster", "balance", "replicate"} {
		t := reg.Timer("core.phase." + ph)
		r.setLayer("core.phase."+ph+"_ms", "ms", ratio(ms(t.Total()), rounds))
	}
	coreCounters(r, reg)

	if e.spec.fsync != "" {
		r.setLayer("wal.appends_per_fsync", "ratio", ratio(c("wal.appends"), c("wal.fsyncs")))
		r.setLayer("wal.bytes_per_ingest", "bytes", ratio(c("wal.bytes"), accepted))
		r.setLayer("wal.append_us_p50", "us", histQuantile(reg, "wal.append_us", 0.5))
		r.setLayer("wal.checkpoints", "count", c("wal.checkpoints"))
	}
}

// histQuantile returns the upper bound of the registry histogram
// bucket holding the q-quantile.
func histQuantile(reg *obs.Registry, name string, q float64) float64 {
	for _, h := range reg.Snapshot(false).Histograms {
		if h.Name != name || h.Count == 0 {
			continue
		}
		need := int64(math.Ceil(q * float64(h.Count)))
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			if cum >= need {
				if i < len(h.Bounds) {
					return float64(h.Bounds[i])
				}
				return math.Inf(1)
			}
		}
	}
	return 0
}

// twin replays the open loop's accepted traffic offline: the requests
// each slot accepted go through sim.Run with RBCAer, which yields the
// paper's metrics for this traffic (the server's plans are certified
// byte-identical to sim.Run's for the same slots; here the slot of a
// request accepted while an advance was draining is approximate). The
// open loop offers the same schedule on every run, so its slots are
// steady where the closed loop's depend on throughput. A traced run
// also times the codec and clustering replay on these serving-sized
// rounds.
func (e *serveEnv) twin(cfg config, r *report, recs []opRec) error {
	tr := &trace.Trace{}
	for i := range recs {
		rec := &recs[i]
		if rec.slot < 0 {
			continue
		}
		q := e.reqs[rec.req]
		q.ID, q.Slot = len(tr.Requests), int(rec.slot)
		tr.Requests = append(tr.Requests, q)
		if q.Slot >= tr.Slots {
			tr.Slots = q.Slot + 1
		}
	}
	if len(tr.Requests) == 0 {
		return errors.New("no request was accepted")
	}
	params := schedParams()
	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
		params.Obs = reg
	}
	ts := newTimingScheduler(params)
	ts.traced = cfg.trace
	m, recsOut, err := ts.pass(e.world, tr, cfg.seed)
	if err != nil {
		return fmt.Errorf("offline twin: %w", err)
	}
	r.setE2E("serving_ratio", "ratio", m.HotspotServingRatio)
	r.setE2E("access_km", "km", m.AvgAccessDistanceKm)
	r.setE2E("replication_cost", "ratio", m.ReplicationCost)
	if cfg.trace {
		// Keep the live server's core figures; take the rest from the
		// twin.
		keep := map[string]metric{}
		for k, v := range r.layer {
			keep[k] = v
		}
		schedLayers(r, recsOut, reg)
		for k, v := range keep {
			r.layer[k] = v
		}
	}
	return nil
}
