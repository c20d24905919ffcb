package geo

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func testBounds() Rect { return Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10} }

// newTestGrid indexes pts over testBounds, reporting pts[i] as ID i.
func newTestGrid(t testing.TB, cell float64, pts ...Point) *Grid {
	t.Helper()
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	g, err := NewGrid(testBounds(), cell, ids, pts)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridErrors(t *testing.T) {
	tests := []struct {
		name   string
		bounds Rect
		cell   float64
		ids    []int
	}{
		{"zero cell", testBounds(), 0, nil},
		{"negative cell", testBounds(), -1, nil},
		{"nan cell", testBounds(), math.NaN(), nil},
		{"inverted bounds", Rect{MinX: 5, MaxX: 1, MinY: 0, MaxY: 1}, 1, nil},
		{"zero area", Rect{MinX: 0, MaxX: 0, MinY: 0, MaxY: 5}, 1, nil},
		{"ids without points", testBounds(), 1, []int{7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGrid(tt.bounds, tt.cell, tt.ids, nil); err == nil {
				t.Error("NewGrid() succeeded, want error")
			}
		})
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := newTestGrid(t, 1)
	if _, _, ok := g.Nearest(Point{5, 5}); ok {
		t.Error("Nearest() on empty grid returned ok")
	}
}

func TestGridNearestSingle(t *testing.T) {
	g, err := NewGrid(testBounds(), 1, []int{42}, []Point{{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	id, d, ok := g.Nearest(Point{0, 0})
	if !ok || id != 42 {
		t.Fatalf("Nearest() = (%d, %v, %v), want id 42", id, d, ok)
	}
	if want := math.Sqrt(18); !almostEqual(d, want, 1e-12) {
		t.Errorf("Nearest() distance = %v, want %v", d, want)
	}
}

// bruteNearest is the reference implementation of Nearest's contract:
// the minimum squared distance, exact ties to the lowest index, and
// math.Hypot distances when every squared distance overflows. It
// returns the index into pts and the distance.
func bruteNearest(pts []Point, q Point) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range pts {
		dx, dy := q.X-p.X, q.Y-p.Y
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	if best >= 0 {
		return best, math.Sqrt(bestD2)
	}
	bestD := 0.0
	for i, p := range pts {
		if d := math.Hypot(q.X-p.X, q.Y-p.Y); best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// checkNearest asserts that g, built over pts with IDs 100+i, answers
// query exactly like bruteNearest: the same ID and the same distance
// bit for bit.
func checkNearest(t *testing.T, g *Grid, pts []Point, query Point) {
	t.Helper()
	wantIdx, wantD := bruteNearest(pts, query)
	id, gotD, ok := g.Nearest(query)
	if !ok {
		t.Fatalf("Nearest(%v) not ok over %d points", query, len(pts))
	}
	if id != 100+wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Fatalf("Nearest(%v) = (id %d, %v), want (id %d, %v)", query, id, gotD, 100+wantIdx, wantD)
	}
}

func gridOver(t *testing.T, bounds Rect, cell float64, pts []Point) *Grid {
	t.Helper()
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = 100 + i
	}
	g, err := NewGrid(bounds, cell, ids, pts)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := func() Point {
		// Include occasional out-of-bounds points.
		return Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
	}
	t.Run("uniform", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			pts := make([]Point, 1+rng.Intn(60))
			for i := range pts {
				pts[i] = uniform()
			}
			g := gridOver(t, testBounds(), 0.8, pts)
			for q := 0; q < 20; q++ {
				checkNearest(t, g, pts, uniform())
			}
		}
	})
	t.Run("clustered", func(t *testing.T) {
		for trial := 0; trial < 30; trial++ {
			centers := make([]Point, 1+rng.Intn(4))
			for i := range centers {
				centers[i] = uniform()
			}
			pts := make([]Point, 1+rng.Intn(120))
			for i := range pts {
				c := centers[rng.Intn(len(centers))]
				pts[i] = c.Add(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
			}
			cell := []float64{0.05, 0.3, 1, 4}[trial%4]
			g := gridOver(t, testBounds(), cell, pts)
			for q := 0; q < 30; q++ {
				query := uniform()
				if q%2 == 0 {
					query = pts[rng.Intn(len(pts))].Add(rng.NormFloat64()*0.02, rng.NormFloat64()*0.02)
				}
				checkNearest(t, g, pts, query)
			}
		}
	})
	t.Run("sparse small cells", func(t *testing.T) {
		// A few points over many small cells: the nearest point is
		// often several rings out, which exercises the ring cut-off
		// at sub-kilometre distances.
		for trial := 0; trial < 200; trial++ {
			pts := make([]Point, 2+rng.Intn(7))
			for i := range pts {
				pts[i] = Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}
			}
			g := gridOver(t, testBounds(), 0.05+rng.Float64()*0.2, pts)
			for q := 0; q < 10; q++ {
				checkNearest(t, g, pts, Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
			}
		}
	})
	t.Run("planted equidistant", func(t *testing.T) {
		// Four points at exactly distance r on the axes through the
		// query sit in four different cells; the lowest insertion index
		// among them must win whatever the ring scan visits first.
		for trial := 0; trial < 40; trial++ {
			q := Point{X: float64(1 + rng.Intn(8)), Y: float64(1 + rng.Intn(8))}
			r := []float64{0.5, 1, 1.5, 2.25}[trial%4]
			planted := []Point{q.Add(r, 0), q.Add(-r, 0), q.Add(0, r), q.Add(0, -r)}
			var pts []Point
			for i := 0; i < 10; i++ { // decoys, all farther than r
				p := uniform()
				if q.DistanceTo(p) > r {
					pts = append(pts, p)
				}
			}
			for _, k := range rng.Perm(len(planted)) {
				at := rng.Intn(len(pts) + 1)
				pts = append(pts[:at], append([]Point{planted[k]}, pts[at:]...)...)
			}
			g := gridOver(t, testBounds(), 0.8, pts)
			checkNearest(t, g, pts, q)
		}
	})
	t.Run("lattice", func(t *testing.T) {
		// Points and queries on a half-unit lattice sit exactly on cell
		// edges for cell sizes 0.5 and 1, so equal distances across
		// cells and ring boundaries are everywhere.
		lattice := func() Point {
			return Point{X: float64(rng.Intn(25)-2) / 2, Y: float64(rng.Intn(25)-2) / 2}
		}
		for trial := 0; trial < 40; trial++ {
			pts := make([]Point, 1+rng.Intn(30))
			for i := range pts {
				pts[i] = lattice()
			}
			g := gridOver(t, testBounds(), []float64{0.5, 1, 2.5}[trial%3], pts)
			for q := 0; q < 30; q++ {
				checkNearest(t, g, pts, lattice())
			}
		}
	})
	t.Run("coincident", func(t *testing.T) {
		for trial := 0; trial < 30; trial++ {
			sites := make([]Point, 1+rng.Intn(5))
			for i := range sites {
				sites[i] = uniform()
			}
			pts := make([]Point, 2+rng.Intn(40))
			for i := range pts {
				pts[i] = sites[rng.Intn(len(sites))]
			}
			g := gridOver(t, testBounds(), 0.8, pts)
			for q := 0; q < 20; q++ {
				query := uniform()
				if q%2 == 0 {
					query = sites[rng.Intn(len(sites))]
				}
				checkNearest(t, g, pts, query)
			}
		}
	})
}

// TestGridNearestFarQueries pins the overflow contract: a finite query
// on a non-empty index always finds the true nearest point, even when
// every squared distance overflows to +Inf.
func TestGridNearestFarQueries(t *testing.T) {
	tests := []struct {
		name  string
		pts   []Point
		query Point
		want  int // index into pts
	}{
		{"far east", []Point{{-1e199, 5}, {1e199, 5}}, Point{1e200, 5}, 1},
		{"far west", []Point{{-1e199, 5}, {1e199, 5}}, Point{-1e200, 1}, 0},
		{"far north", []Point{{5, -1e299}, {5, 1e299}}, Point{5, 1e300}, 1},
		{"max float", []Point{{-1e308, 0}, {1e308, 0}}, Point{math.MaxFloat64, 0}, 1},
		{"squares just overflow", []Point{{0, 0}, {1e140, 0}}, Point{1.5e154, 0}, 1},
		// Distances that round to the same float tie: lowest index wins.
		{"far tie", []Point{{1, 1}, {9, 5}}, Point{1e200, 5}, 0},
		{"far points tie", []Point{{1e200, 0}, {-1e200, 0}}, Point{5, 5}, 0},
		{"far diagonal tie", []Point{{1, 1}, {9, 9}}, Point{-1e250, -1e250}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := gridOver(t, testBounds(), 1, tt.pts)
			id, d, ok := g.Nearest(tt.query)
			if !ok || id != 100+tt.want {
				t.Fatalf("Nearest(%v) = (%d, %v, %v), want id %d", tt.query, id, d, ok, 100+tt.want)
			}
			if math.IsNaN(d) || d <= 0 {
				t.Errorf("Nearest(%v) distance %v, want a positive distance", tt.query, d)
			}
			checkNearest(t, g, tt.pts, tt.query)
		})
	}
}

func TestGridNearestNonFinite(t *testing.T) {
	g := newTestGrid(t, 1, Point{1, 1}, Point{9, 9})
	for _, q := range []Point{
		{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(-1)},
	} {
		if id, d, ok := g.Nearest(q); ok {
			t.Errorf("Nearest(%v) = (%d, %v, true), want ok=false", q, id, d)
		}
	}
}

// TestGridNearestConcurrent queries one shared Grid from several
// goroutines, the way the server's frontends share their hotspot
// index; run under -race it proves the queries are read-only.
func TestGridNearestConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	g := gridOver(t, testBounds(), 0.7, pts)
	queries := make([]Point, 500)
	want := make([]int, len(queries))
	for i := range queries {
		queries[i] = Point{X: rng.Float64()*12 - 1, Y: rng.Float64()*12 - 1}
		idx, _ := bruteNearest(pts, queries[i])
		want[i] = 100 + idx
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 3 {
				if id, _, ok := g.Nearest(queries[i]); !ok || id != want[i] {
					errs <- "concurrent Nearest disagreed with brute force"
					return
				}
				_ = g.Within(queries[i], 1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzGridNearest checks that Nearest never panics on any query —
// NaN, ±Inf and huge coordinates included — and that every finite
// query matches brute force exactly.
func FuzzGridNearest(f *testing.F) {
	f.Add(5.0, 5.0, int64(1), uint8(10), 1.0)
	f.Add(1e200, 5.0, int64(2), uint8(2), 0.5)
	f.Add(math.NaN(), 0.0, int64(3), uint8(5), 1.0)
	f.Add(math.Inf(-1), math.Inf(1), int64(4), uint8(5), 2.0)
	f.Add(-1e308, 1e308, int64(5), uint8(40), 0.1)
	f.Add(3.0, 3.0, int64(6), uint8(30), 0.05)
	f.Fuzz(func(t *testing.T, qx, qy float64, seed int64, n uint8, cell float64) {
		if !(cell >= 0.05 && cell <= 20) {
			cell = 1
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, int(n)%64)
		for i := range pts {
			switch rng.Intn(5) {
			case 0: // coincident with an earlier point
				if i > 0 {
					pts[i] = pts[rng.Intn(i)]
					continue
				}
				fallthrough
			case 1: // outlier, possibly astronomically far
				pts[i] = Point{X: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(300))), Y: rng.NormFloat64() * 20}
			default:
				pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
		}
		g := gridOver(t, testBounds(), cell, pts)
		q := Point{qx, qy}
		id, d, ok := g.Nearest(q)
		if len(pts) == 0 || !q.Finite() {
			if ok {
				t.Fatalf("Nearest(%v) over %d points = (%d, %v, true), want ok=false", q, len(pts), id, d)
			}
			return
		}
		checkNearest(t, g, pts, q)
		_ = g.Within(q, cell)
	})
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		pts := make([]Point, rng.Intn(80))
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		g := newTestGrid(t, 1.3, pts...)
		query := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		radius := rng.Float64() * 4
		var want []int
		for i, p := range pts {
			if query.DistanceTo(p) <= radius {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := g.Within(query, radius)
		gotIDs := make([]int, len(got))
		for i, nb := range got {
			gotIDs[i] = nb.ID
		}
		sort.Ints(gotIDs)
		if len(gotIDs) != len(want) {
			t.Fatalf("trial %d: Within() returned %d, want %d", trial, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("trial %d: Within() ids %v, want %v", trial, gotIDs, want)
			}
		}
		// Sorted by distance.
		for i := 1; i < len(got); i++ {
			if got[i].Distance < got[i-1].Distance {
				t.Fatalf("trial %d: Within() not sorted by distance", trial)
			}
		}
	}
}

// TestGridWithinOutliers queries squares that lie wholly outside the
// bounds: points clamped into the boundary cells must still be found.
func TestGridWithinOutliers(t *testing.T) {
	g := newTestGrid(t, 1, Point{15, 5}, Point{5, -7}, Point{5, 5})
	if got := g.Within(Point{15.5, 5}, 1); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("Within east of bounds = %v, want point 0", got)
	}
	if got := g.Within(Point{5, -7.5}, 1); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("Within south of bounds = %v, want point 1", got)
	}
}

func TestGridWithinNegativeRadius(t *testing.T) {
	g := newTestGrid(t, 1, Point{5, 5})
	if got := g.Within(Point{5, 5}, -1); got != nil {
		t.Errorf("Within(negative radius) = %v, want nil", got)
	}
	if got := g.Pairs(-1); got != nil {
		t.Errorf("Pairs(negative radius) = %v, want nil", got)
	}
}

func TestGridPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		g := newTestGrid(t, 1.1, pts...)
		radius := rng.Float64() * 3
		want := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pts[i].DistanceTo(pts[j]) <= radius {
					want[[2]int{i, j}] = true
				}
			}
		}
		got := g.Pairs(radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Pairs() returned %d, want %d", trial, len(got), len(want))
		}
		for k, p := range got {
			if p.A >= p.B {
				t.Fatalf("trial %d: pair (%d, %d) not in insertion order", trial, p.A, p.B)
			}
			if !want[[2]int{p.A, p.B}] {
				t.Fatalf("trial %d: unexpected pair (%d, %d)", trial, p.A, p.B)
			}
			if k > 0 && got[k-1].A > p.A {
				t.Fatalf("trial %d: pairs not grouped by ascending A", trial)
			}
		}
	}
}

func TestGridLenAndBounds(t *testing.T) {
	g := newTestGrid(t, 1)
	if g.Len() != 0 {
		t.Errorf("Len() = %d, want 0", g.Len())
	}
	g = newTestGrid(t, 1, Point{1, 1}, Point{2, 2})
	if g.Len() != 2 {
		t.Errorf("Len() = %d, want 2", g.Len())
	}
	if g.Bounds() != testBounds() {
		t.Errorf("Bounds() = %+v, want %+v", g.Bounds(), testBounds())
	}
}

func TestGridDuplicateAndCoincidentPoints(t *testing.T) {
	g, err := NewGrid(testBounds(), 1, []int{2, 1}, []Point{{5, 5}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	id, d, ok := g.Nearest(Point{5, 5})
	if !ok || d != 0 {
		t.Fatalf("Nearest() = (%d, %v, %v), want distance 0", id, d, ok)
	}
	if id != 2 {
		t.Errorf("Nearest() tie-break id = %d, want 2 (first inserted)", id)
	}
	nbrs := g.Within(Point{5, 5}, 0)
	if len(nbrs) != 2 {
		t.Errorf("Within(r=0) = %d results, want 2", len(nbrs))
	}
}
