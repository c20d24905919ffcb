package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/similarity"
)

// parseAllocBound is the most ParseCanonical may allocate for an input
// of n bytes: every section is sized from the bytes left to parse, so
// allocation grows with the input, never with a declared count.
func parseAllocBound(n int) uint64 { return 16*uint64(n) + 16<<10 }

// FuzzParseCanonical drives the plan decoder with arbitrary bytes. It
// must never panic, must allocate no more than parseAllocBound of the
// input's length, and any input it accepts must re-encode to the
// identical bytes with every placement row a valid Set (ids ascending
// in [0, MaxInt32]).
func FuzzParseCanonical(f *testing.F) {
	w := lineWorld(8, 0.4, 40, 20)
	s, err := New(w, DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	plan, err := s.ScheduleRound(randomDemand(w, 300, 60, 3), Constraints{})
	if err != nil {
		f.Fatal(err)
	}
	good := plan.Canonical()
	f.Add(good)
	f.Add((&Plan{}).Canonical())
	f.Add((&Plan{
		Degraded:      true,
		Flows:         []FlowEdge{{From: -1, To: math.MaxInt32, Amount: math.MinInt64}},
		Redirects:     []Redirect{{From: 2, To: 0, Video: 5, Count: 9}},
		Placement:     []similarity.Set{similarity.NewSet(0, math.MaxInt32), similarity.NewSet()},
		OverflowToCDN: []int64{7, math.MaxInt64},
	}).Canonical())
	for _, bad := range badPlacementRows {
		f.Add(withPlacementRow(bad))
	}
	f.Add([]byte("plan v1\ndegraded 0\nflows 268435456\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ParseCanonical(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, parseAllocBound(len(data)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, bound %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(p.Canonical(), data) {
			t.Fatalf("accepted input does not re-encode byte-identically")
		}
		for h, set := range p.Placement {
			for i := 0; i < set.Len(); i++ {
				if v := set.At(i); v < 0 || (i > 0 && v <= set.At(i-1)) {
					t.Fatalf("placement row %d holds %v", h, set.Sorted())
				}
			}
		}
	})
}

// badPlacementRows are placement rows ParseCanonical must reject while
// parsing, not just by the later re-encode compare.
var badPlacementRows = map[string]string{
	"negative id":       "p 0 -1 4",
	"duplicate id":      "p 0 4 4",
	"descending ids":    "p 0 5 4",
	"id above MaxInt32": "p 0 2147483648",
	"leading zero":      "p 0 04",
	"plus sign":         "p 0 +4",
	"negative zero":     "p 0 -0",
	"empty field":       "p 0 4  5",
	"trailing space":    "p 0 4 ",
}

// withPlacementRow is a one-row plan whose placement row is row.
func withPlacementRow(row string) []byte {
	return []byte("plan v1\ndegraded 0\nflows 0\nredirects 0\nplacement 1\n" + row + "\noverflow 0\n")
}

func TestParseCanonicalRejectsBadPlacementIDs(t *testing.T) {
	if _, err := ParseCanonical(withPlacementRow("p 0 1 4 2147483647")); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	for name, row := range badPlacementRows {
		if _, err := ParseCanonical(withPlacementRow(row)); err == nil {
			t.Errorf("%s: ParseCanonical accepted %q", name, row)
		}
	}
	// Ids in the other sections must fit their int32 fields.
	for _, data := range []string{
		"plan v1\ndegraded 0\nflows 1\nf 0 2147483648 1\nredirects 0\nplacement 0\noverflow\n",
		"plan v1\ndegraded 0\nflows 0\nredirects 1\nr 0 1 -2147483649 1\nplacement 0\noverflow\n",
	} {
		if _, err := ParseCanonical([]byte(data)); err == nil {
			t.Errorf("ParseCanonical accepted an out-of-range id in %q", data)
		}
	}
}

// TestParseCanonicalAllocBounded: a header declaring a huge section
// cannot make the parser allocate beyond what the input could hold.
func TestParseCanonicalAllocBounded(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("plan v1\ndegraded 0\nflows 268435456\n"),
		[]byte("plan v1\ndegraded 0\nflows 0\nredirects 268435456\nr 0 1 2 3\n"),
		[]byte("plan v1\ndegraded 0\nflows 0\nredirects 0\nplacement 268435456\np 0\n"),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ParseCanonical(data); err == nil {
			t.Fatalf("truncated plan accepted")
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, parseAllocBound(len(data)); got > limit {
			t.Errorf("%q: allocated %d bytes, bound %d", data, got, limit)
		}
	}
}
