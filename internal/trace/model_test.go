package trace

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestWorldValidate(t *testing.T) {
	valid := testWorld()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid world rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*World)
	}{
		{"bad bounds", func(w *World) { w.Bounds = geo.Rect{MinX: 1, MaxX: 0} }},
		{"no videos", func(w *World) { w.NumVideos = 0 }},
		{"no cdn distance", func(w *World) { w.CDNDistanceKm = 0 }},
		{"no hotspots", func(w *World) { w.Hotspots = nil }},
		{"non-dense ids", func(w *World) { w.Hotspots[1].ID = 5 }},
		{"negative capacity", func(w *World) { w.Hotspots[0].ServiceCapacity = -1 }},
		{"negative cache", func(w *World) { w.Hotspots[0].CacheCapacity = -1 }},
		{"nan location", func(w *World) { w.Hotspots[1].Location.X = math.NaN() }},
		{"inf location", func(w *World) { w.Hotspots[0].Location.Y = math.Inf(-1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := testWorld()
			tt.mut(w)
			if err := w.Validate(); err == nil {
				t.Error("Validate() succeeded, want error")
			}
		})
	}
}

func TestTraceValidate(t *testing.T) {
	w := testWorld()
	tr := &Trace{Slots: 2, Requests: []Request{
		{ID: 0, Video: 1, Slot: 0},
		{ID: 1, Video: 99, Slot: 1},
	}}
	if err := tr.Validate(w); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Slots: 0}
	if err := bad.Validate(w); err == nil {
		t.Error("Validate(zero slots) succeeded")
	}
	badSlot := &Trace{Slots: 2, Requests: []Request{{Video: 1, Slot: 5}}}
	if err := badSlot.Validate(w); err == nil {
		t.Error("Validate(slot out of range) succeeded")
	}
	badVideo := &Trace{Slots: 2, Requests: []Request{{Video: 100, Slot: 0}}}
	if err := badVideo.Validate(w); err == nil {
		t.Error("Validate(video out of range) succeeded")
	}
}

// TestTraceValidateNonFiniteLocation feeds ReadRequests the non-finite
// coordinates strconv.ParseFloat accepts: the parse succeeds, and
// Validate must then reject the trace before it reaches the nearest-
// hotspot aggregation.
func TestTraceValidateNonFiniteLocation(t *testing.T) {
	for _, tt := range []struct{ name, x, y string }{
		{"nan x", "NaN", "1.0"},
		{"nan y", "1.0", "nan"},
		{"inf x", "Inf", "1.0"},
		{"-inf y", "1.0", "-Inf"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			data := "id,user,video,x,y,slot\n0,1,2," + tt.x + "," + tt.y + ",0\n"
			tr, err := ReadRequests(strings.NewReader(data))
			if err != nil {
				t.Fatalf("ReadRequests(%q): %v", data, err)
			}
			if err := tr.Validate(testWorld()); err == nil {
				t.Errorf("Validate accepted request location (%s, %s)", tt.x, tt.y)
			}
		})
	}
	far := &Trace{Slots: 1, Requests: []Request{{Video: 2, Location: geo.Point{X: 1e200, Y: 5}}}}
	if err := far.Validate(testWorld()); err != nil {
		t.Errorf("Validate rejected a finite far-away location: %v", err)
	}
}

func TestTraceBySlot(t *testing.T) {
	tr := &Trace{Slots: 3, Requests: []Request{
		{ID: 0, Slot: 2},
		{ID: 1, Slot: 0},
		{ID: 2, Slot: 2},
	}}
	by := tr.BySlot()
	if len(by) != 3 {
		t.Fatalf("BySlot() len %d, want 3", len(by))
	}
	if len(by[0]) != 1 || by[0][0].ID != 1 {
		t.Errorf("slot 0 = %v", by[0])
	}
	if len(by[1]) != 0 {
		t.Errorf("slot 1 = %v, want empty", by[1])
	}
	if len(by[2]) != 2 || by[2][0].ID != 0 || by[2][1].ID != 2 {
		t.Errorf("slot 2 = %v (order must be preserved)", by[2])
	}
}

// TestTraceBySlotPartition checks BySlot against a plain append
// partition on a random trace with empty slots: same order per slot,
// nil for every empty slot, and each slot capped so that appending to
// it cannot overwrite the next slot's requests.
func TestTraceBySlotPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const slots = 9
	tr := &Trace{Slots: slots}
	for i := 0; i < 400; i++ {
		slot := rng.Intn(slots)
		if slot%3 == 1 {
			continue // slots 1, 4 and 7 stay empty
		}
		tr.Requests = append(tr.Requests, Request{ID: i, Slot: slot})
	}
	want := make([][]Request, slots)
	for _, r := range tr.Requests {
		want[r.Slot] = append(want[r.Slot], r)
	}
	by := tr.BySlot()
	if !reflect.DeepEqual(by, want) {
		t.Fatal("BySlot differs from the append partition")
	}
	for s, reqs := range by {
		if s%3 == 1 && reqs != nil {
			t.Errorf("empty slot %d = %v, want nil", s, reqs)
		}
		if cap(reqs) != len(reqs) {
			t.Errorf("slot %d has cap %d beyond its %d requests", s, cap(reqs), len(reqs))
		}
	}
	next := append([]Request(nil), by[2]...)
	_ = append(by[0], Request{ID: -1, Slot: 0})
	if !reflect.DeepEqual(by[2], next) || !reflect.DeepEqual(by, want) {
		t.Fatal("appending to slot 0 changed another slot")
	}
}

func TestWorldIndexOf(t *testing.T) {
	w := testWorld()
	idx, err := w.IndexOf([]HotspotID{1})
	if err != nil {
		t.Fatalf("IndexOf: %v", err)
	}
	if id, _, ok := idx.Nearest(geo.Point{X: 1, Y: 2}); idx.Len() != 1 || !ok || id != 1 {
		t.Errorf("IndexOf([1]) = %d points, nearest (%d, %v), want only hotspot 1", idx.Len(), id, ok)
	}
	for _, bad := range []HotspotID{-1, 2} {
		if _, err := w.IndexOf([]HotspotID{0, bad}); err == nil {
			t.Errorf("IndexOf accepted hotspot %d", bad)
		}
	}
}

func TestWorldIndex(t *testing.T) {
	w := testWorld()
	idx, err := w.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if idx.Len() != len(w.Hotspots) {
		t.Fatalf("index has %d points, want %d", idx.Len(), len(w.Hotspots))
	}
	id, _, ok := idx.Nearest(geo.Point{X: 1.1, Y: 2.1})
	if !ok || id != 0 {
		t.Errorf("Nearest = (%d, %v), want hotspot 0", id, ok)
	}
	id, _, ok = idx.Nearest(geo.Point{X: 3.4, Y: 4.3})
	if !ok || id != 1 {
		t.Errorf("Nearest = (%d, %v), want hotspot 1", id, ok)
	}
}
