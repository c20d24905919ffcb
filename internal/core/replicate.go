package core

import (
	"fmt"
	"slices"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// replicate implements Procedure 1 (ContentAggregationReplication): it
// converts the inter-hotspot flows f_ij into per-video request
// redirects using the content-placement efficiency index
// eu(v,j) = Σ_i min(f_ij, λ_iv), placing redirected videos at their
// targets, and then greedily fills the remaining cache space with
// locally demanded videos ranked by the offload efficiency index
// el(v,i) until caches are full or the replication budget BPeak is
// reached.
//
// It returns the redirects, the placement y, the amount of flow that
// could not be realised into concrete redirects (no matching demand or
// no cache space at the target), and the total number of replicas.
// cache holds the round's effective per-hotspot cache capacities
// (nominal or degraded).
func (s *Scheduler) replicate(d *Demand, flows map[int64]int64, svc []int64, cache []int) (
	redirects []Redirect,
	placement []similarity.Set,
	unrealized int64,
	replicas int64,
	err error,
) {
	m := len(s.world.Hotspots)
	rows := s.ar.placementRows(m, s.world.NumVideos)
	cacheUsed := make([]int, m)
	lv := newLambdaView(d, m)

	redirects, unrealized, replicas, err = s.realizeFlows(flows, cache, lv, rows, cacheUsed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	serveBudget := s.fillBudgets(svc, redirects)

	if s.params.BPeak > 0 {
		// Greedy local fill (Procedure 1, lines 14-19): replicate the
		// highest remaining local demand el(v, i) = λ_iv until caches
		// fill or the budget runs out. BPeak is a single global budget
		// consumed in global (count, hotspot, video) order, so the rows
		// cannot be decomposed — keep the global walk.
		type localDemand struct {
			hotspot int
			video   trace.VideoID
			count   int64
		}
		var fill []localDemand
		for i := 0; i < m; i++ {
			if cacheUsed[i] >= cache[i] {
				continue
			}
			for v, n := range lv.row(i) {
				if n <= 0 || rows[i].Contains(int(v)) {
					continue
				}
				if err := s.checkVideo(v); err != nil {
					return nil, nil, 0, 0, err
				}
				fill = append(fill, localDemand{hotspot: i, video: v, count: n})
			}
		}
		slices.SortFunc(fill, func(a, b localDemand) int {
			switch {
			case a.count != b.count:
				if a.count > b.count {
					return -1
				}
				return 1
			case a.hotspot != b.hotspot:
				return a.hotspot - b.hotspot
			default:
				return int(a.video) - int(b.video)
			}
		})
		for _, ld := range fill {
			if replicas >= s.params.BPeak {
				break
			}
			if serveBudget[ld.hotspot] <= 0 {
				continue
			}
			if cacheUsed[ld.hotspot] >= cache[ld.hotspot] {
				continue
			}
			if !rows[ld.hotspot].Add(int(ld.video)) {
				continue
			}
			cacheUsed[ld.hotspot]++
			replicas++
			serveBudget[ld.hotspot] -= ld.count
		}
	} else {
		// Without the global BPeak budget every state the fill walk
		// touches — cache space, serve budget, placement — is
		// per-hotspot, and the global (count desc, hotspot asc, video
		// asc) order restricted to one hotspot is (count desc, video
		// asc): the walk decomposes into independent per-hotspot fills
		// in ascending hotspot order with identical output.
		var scratch []fillCand
		for i := 0; i < m; i++ {
			var added int64
			added, scratch, err = s.fillHotspot(lv.row(i), &rows[i], cacheUsed[i], cache[i], serveBudget[i], scratch)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			replicas += added
		}
	}

	if unrealized < 0 {
		return nil, nil, 0, 0, fmt.Errorf("core: negative unrealized flow %d (bug)", unrealized)
	}
	return redirects, emitPlacement(rows), unrealized, replicas, nil
}

// lambdaView is the remaining-local-demand vector λ_rem of Procedure 1,
// materialised lazily: a hotspot's row is copied (filtered to n > 0)
// only when stage A mutates it; every other hotspot reads the raw
// demand map with non-positive entries filtered at the use sites —
// exactly the set the eager copy would have held. On typical rounds
// only the flow sources (a few dozen of thousands of hotspots) ever
// materialise. The view never mutates the underlying Demand.
type lambdaView struct {
	d   *Demand
	mod []map[trace.VideoID]int64
}

func newLambdaView(d *Demand, m int) *lambdaView {
	return &lambdaView{d: d, mod: make([]map[trace.VideoID]int64, m)}
}

// materialize returns hotspot h's mutable remaining-demand row, copying
// the filtered (n > 0) demand on first use.
func (lv *lambdaView) materialize(h int) map[trace.VideoID]int64 {
	if lv.mod[h] == nil {
		row := make(map[trace.VideoID]int64, len(lv.d.PerVideo[h]))
		for v, n := range lv.d.PerVideo[h] {
			if n > 0 {
				row[v] = n
			}
		}
		lv.mod[h] = row
	}
	return lv.mod[h]
}

// at returns λ_rem for (h, v). Callers treat non-positive values as
// absent, which makes the raw-row read equivalent to the filtered copy.
func (lv *lambdaView) at(h int, v trace.VideoID) int64 {
	if row := lv.mod[h]; row != nil {
		return row[v]
	}
	return lv.d.PerVideo[h][v]
}

// row returns hotspot h's remaining-demand row for read-only iteration:
// the materialised row when stage A touched h, the raw demand map
// otherwise (iterate with an n > 0 guard).
func (lv *lambdaView) row(h int) map[trace.VideoID]int64 {
	if lv.mod[h] != nil {
		return lv.mod[h]
	}
	return lv.d.PerVideo[h]
}

// realizeFlows is stage A of Procedure 1: it converts the inter-hotspot
// flows into per-video redirects in descending eu(v,j) order, placing
// each redirected video at its target. It mutates lv (source rows),
// rows, and cacheUsed (target rows) and returns the redirects, the flow
// it could not realise, and the replicas it placed.
func (s *Scheduler) realizeFlows(
	flows map[int64]int64,
	cache []int,
	lv *lambdaView,
	rows []similarity.BitSet,
	cacheUsed []int,
) (redirects []Redirect, unrealized int64, replicas int64, err error) {
	m := len(s.world.Hotspots)

	// Per-target source lists (SinktoSource(j) in the paper), ascending
	// by source, each with the remaining flow budget of its (i, j) pair.
	type flowSrc struct {
		i   int
		rem int64
	}
	sourcesOf := make([][]flowSrc, m)
	var targets []int
	var totalFlow int64
	for k, f := range flows {
		if f <= 0 {
			continue
		}
		i, j := unpackPair(k, m)
		if len(sourcesOf[j]) == 0 {
			targets = append(targets, j)
		}
		sourcesOf[j] = append(sourcesOf[j], flowSrc{i: i, rem: f})
		totalFlow += f
	}
	for _, j := range targets {
		slices.SortFunc(sourcesOf[j], func(a, b flowSrc) int { return a.i - b.i })
	}

	// eu(v, j) under the current remaining flow and demand.
	euOf := func(v trace.VideoID, j int) int64 {
		var sum int64
		for _, src := range sourcesOf[j] {
			if src.rem <= 0 {
				continue
			}
			lam := lv.at(src.i, v)
			if lam <= 0 {
				continue
			}
			sum += min(lam, src.rem)
		}
		return sum
	}

	// Seed the lazy max-heap over (v, j) with initial eu values, then
	// heapify once. Every flow source materialises its λ_rem row here,
	// before any read.
	var h euHeap
	seen := similarity.NewBitSet(s.world.NumVideos)
	for _, j := range targets {
		seen.Reset()
		for _, src := range sourcesOf[j] {
			for v := range lv.materialize(src.i) {
				if err := s.checkVideo(v); err != nil {
					return nil, 0, 0, err
				}
				if !seen.Add(int(v)) {
					continue
				}
				if eu := euOf(v, j); eu > 0 {
					h = append(h, euEntry{video: v, target: j, eu: eu})
				}
			}
		}
	}
	h.init()

	remainingTotal := totalFlow
	for len(h) > 0 && remainingTotal > 0 {
		top := h.pop()
		cur := euOf(top.video, top.target)
		if cur <= 0 {
			continue
		}
		if cur < top.eu {
			// Stale priority: requeue with the refreshed value.
			h.push(euEntry{video: top.video, target: top.target, eu: cur})
			continue
		}
		j := top.target
		v := top.video
		// Redirecting v to j requires a replica at j.
		if !rows[j].Contains(int(v)) {
			if cacheUsed[j] >= cache[j] {
				continue // target cache full; this (v, j) is unrealisable
			}
			rows[j].Add(int(v))
			cacheUsed[j]++
			replicas++
		}
		for k := range sourcesOf[j] {
			src := &sourcesOf[j][k]
			if src.rem <= 0 {
				continue
			}
			row := lv.mod[src.i] // materialised at seeding
			lam := row[v]
			if lam <= 0 {
				continue
			}
			amt := min(lam, src.rem)
			redirects = append(redirects, Redirect{
				From:  trace.HotspotID(src.i),
				To:    trace.HotspotID(j),
				Video: v,
				Count: amt,
			})
			src.rem -= amt
			if lam == amt {
				delete(row, v)
			} else {
				row[v] = lam - amt
			}
			remainingTotal -= amt
		}
	}
	return redirects, remainingTotal, replicas, nil
}

// checkVideo rejects a video id outside the catalogue [0, NumVideos)
// before it is placed.
func (s *Scheduler) checkVideo(v trace.VideoID) error {
	if v < 0 || int(v) >= s.world.NumVideos {
		return fmt.Errorf("core: demand for video %d outside the catalogue [0, %d)", v, s.world.NumVideos)
	}
	return nil
}

// fillBudgets computes the per-hotspot serve budget of the greedy fill.
// Replicating a video the hotspot has no service capacity left to serve
// would add CDN push load with zero serving benefit — this is the role
// of the paper's B_peak bound on the replication loop. We budget each
// hotspot's fill by its serviceable residual demand: service capacity
// minus the inflow reserved by redirects.
func (s *Scheduler) fillBudgets(svc []int64, redirects []Redirect) []int64 {
	over := s.params.FillOverprovision
	if over <= 0 {
		over = 1
	}
	serveBudget := make([]int64, len(svc))
	for i, c := range svc {
		serveBudget[i] = int64(float64(c) * over)
	}
	for _, rd := range redirects {
		serveBudget[rd.To] -= rd.Count
	}
	return serveBudget
}

// fillCand is one candidate of a single hotspot's greedy fill.
type fillCand struct {
	video trace.VideoID
	count int64
}

// cmpFill orders fill candidates by (count desc, video asc), the walk
// order of the greedy local fill; it is a strict total order because a
// row holds each video once.
func cmpFill(a, b fillCand) int {
	switch {
	case a.count != b.count:
		if a.count > b.count {
			return -1
		}
		return 1
	default:
		return int(a.video) - int(b.video)
	}
}

// fillHotspot runs one hotspot's greedy local fill: remaining local
// demand in (count desc, video asc) order, bounded by cache space and
// the serve budget. base is the hotspot's remaining demand row;
// non-positive remaining demand and videos already in row are skipped.
// The walk can place at most cacheCap-used videos, so only that many
// best candidates are selected and sorted. Returns the replicas added to row and the (possibly
// grown) candidate scratch for reuse.
func (s *Scheduler) fillHotspot(
	base map[trace.VideoID]int64,
	row *similarity.BitSet,
	used, cacheCap int,
	budget int64,
	scratch []fillCand,
) (int64, []fillCand, error) {
	if used >= cacheCap || budget <= 0 {
		return 0, scratch, nil
	}
	cands := scratch[:0]
	for v, n := range base {
		if n <= 0 || row.Contains(int(v)) {
			continue
		}
		if err := s.checkVideo(v); err != nil {
			return 0, cands, err
		}
		cands = append(cands, fillCand{video: v, count: n})
	}
	best := cands
	if k := cacheCap - used; len(best) > k {
		similarity.SelectTop(best, k, cmpFill)
		best = best[:k]
	}
	slices.SortFunc(best, cmpFill)
	var added int64
	for _, c := range best {
		if budget <= 0 {
			break
		}
		row.Add(int(c.video))
		added++
		budget -= c.count
	}
	return added, cands, nil
}

// euEntry is a (video, target) candidate keyed by its content-placement
// efficiency index.
type euEntry struct {
	video  trace.VideoID
	target int
	eu     int64
}

// euHeap is a max-heap over euEntry with deterministic tie-breaking.
// Hand-rolled (sift-up/sift-down identical to container/heap) because
// the boxed interface{} Push/Pop of container/heap dominated the
// round's allocation profile: one box per operation on a heap that sees
// every (video, target) candidate of the round. The (eu, target, video)
// order is strict and total, so pop order is deterministic.
type euHeap []euEntry

func (h euHeap) less(a, b int) bool {
	if h[a].eu != h[b].eu {
		return h[a].eu > h[b].eu
	}
	if h[a].target != h[b].target {
		return h[a].target < h[b].target
	}
	return h[a].video < h[b].video
}

// init establishes the heap order over arbitrary contents in O(n).
// Heapifying instead of pushing one by one cannot change the pop
// sequence: the heap holds at most one entry per (video, target) and
// orders entries strictly by (eu, target, video).
func (h euHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *euHeap) push(e euEntry) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *euHeap) pop() euEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

// down sifts element i down over h[:n].
func (h euHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
