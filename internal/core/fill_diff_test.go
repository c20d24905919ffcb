package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// refFill is the greedy local fill fillHotspot replaced: a map
// placement, every candidate fully sorted by (count desc, video asc),
// walked until the cache or the serve budget runs out.
func refFill(base map[trace.VideoID]int64, placed map[int]bool, used, cacheCap int, budget int64) int64 {
	if used >= cacheCap || budget <= 0 {
		return 0
	}
	var cands []fillCand
	for v, n := range base {
		if n <= 0 || placed[int(v)] {
			continue
		}
		cands = append(cands, fillCand{video: v, count: n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		return cands[i].video < cands[j].video
	})
	var added int64
	for _, c := range cands {
		if budget <= 0 || used >= cacheCap {
			break
		}
		placed[int(c.video)] = true
		used++
		added++
		budget -= c.count
	}
	return added
}

// TestFillHotspotMatchesFullSort compares the selection-based fill on a
// dense BitSet row against the full-sort map reference on random rows
// with heavy count ties and partial pre-placement.
func TestFillHotspotMatchesFullSort(t *testing.T) {
	w := lineWorld(2, 0.5, 10, 10)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	row := similarity.NewBitSet(w.NumVideos)
	var scratch []fillCand
	for trial := 0; trial < 2000; trial++ {
		base := make(map[trace.VideoID]int64)
		for i := rng.Intn(150); i > 0; i-- {
			base[trace.VideoID(rng.Intn(200))] = int64(rng.Intn(5)) // zero counts and ties
		}
		row.Reset()
		placed := make(map[int]bool)
		for i := rng.Intn(20); i > 0; i-- {
			v := rng.Intn(200)
			row.Add(v)
			placed[v] = true
		}
		used := row.Len()
		cacheCap := used + rng.Intn(60) - 5
		budget := int64(rng.Intn(250)) - 10

		want := refFill(base, placed, used, cacheCap, budget)
		var got int64
		got, scratch, err = s.fillHotspot(base, &row, used, cacheCap, budget, scratch)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := make([]int, 0, len(placed))
		for v := range placed {
			wantSet = append(wantSet, v)
		}
		slices.Sort(wantSet)
		if got != want || !slices.Equal(row.Set().Sorted(), wantSet) {
			t.Fatalf("trial %d: fill added %d → %v, reference %d → %v",
				trial, got, row.Set().Sorted(), want, wantSet)
		}
	}
}

// TestScheduleRejectsVideoOutsideCatalogue: a demand row naming a video
// outside [0, NumVideos) cannot be placed in the dense placement rows,
// so the round fails with an error instead.
func TestScheduleRejectsVideoOutsideCatalogue(t *testing.T) {
	w := lineWorld(3, 0.5, 10, 5)
	budgeted := DefaultParams()
	budgeted.BPeak = 100 // the global greedy fill instead of the per-hotspot one
	for _, p := range []Params{DefaultParams(), budgeted} {
		for _, v := range []trace.VideoID{-1, trace.VideoID(w.NumVideos)} {
			for _, h := range []trace.HotspotID{0, 1} { // flow source, fill only
				d := NewDemand(3)
				d.Add(0, 4, 30)
				d.Add(1, 4, 1)
				d.Add(h, v, 3)
				s, err := New(w, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ScheduleRound(d, Constraints{}); err == nil {
					t.Errorf("BPeak %d: video %d at hotspot %d scheduled without error", p.BPeak, v, h)
				}
			}
		}
	}
}
