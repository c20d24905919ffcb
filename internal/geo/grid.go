package geo

import (
	"fmt"
	"math"
	"sort"
)

// Grid is an immutable uniform-grid spatial index over points with
// integer IDs. It supports the three queries the simulator needs at
// scale:
//
//   - Nearest: map each of hundreds of thousands of requests to its
//     nearest content hotspot,
//   - Within: find all hotspots within a routing radius (the paper's
//     Random scheme and the θ-bounded flow edges), and
//   - Pairs: enumerate hotspot pairs closer than a radius (the
//     measurement study's <5 km pair analyses).
//
// The points are stored once, cell-sorted in compressed-sparse-row
// form: cell c (row-major, c = y*cols + x) holds positions
// cellStart[c] to cellStart[c+1] of the flat pts/ids/order arrays,
// in insertion order within the cell. A row of adjacent cells is
// therefore one contiguous span, which is how every query reads them.
// A Grid is built once by NewGrid and never mutated, so any number of
// goroutines may query it concurrently.
//
// Points may lie outside the nominal bounds; they are clamped into the
// boundary cells, so queries remain correct (if slower) for outliers.
type Grid struct {
	bounds    Rect
	cellSize  float64
	cols      int
	rows      int
	cellStart []int32 // len cols*rows+1; cell c spans [cellStart[c], cellStart[c+1])
	pts       []Point // point coordinates, cell-sorted
	ids       []int   // caller IDs, cell-sorted
	order     []int32 // insertion index of each cell-sorted position
	invCell   float64 // 1/cellSize, for Nearest's query cell
	margin    float64 // rounding allowance of Nearest's ring cut-off (see ringSlack)
}

// NewGrid builds an index over bounds with roughly cellSize-sized
// cells holding pts, where pts[i] is reported by queries as ids[i]. The
// position in pts is the point's insertion index, which breaks exact
// distance ties. IDs need not be unique or dense. cellSize must be
// positive, bounds must be valid with positive area, and ids and pts
// must have the same length.
func NewGrid(bounds Rect, cellSize float64, ids []int, pts []Point) (*Grid, error) {
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: invalid grid bounds %+v", bounds)
	}
	if !(cellSize > 0) {
		return nil, fmt.Errorf("geo: non-positive cell size %v", cellSize)
	}
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("geo: %d ids for %d points", len(ids), len(pts))
	}
	if len(pts) > math.MaxInt32 {
		return nil, fmt.Errorf("geo: %d points exceed the index's int32 positions", len(pts))
	}
	g := &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     max(1, int(math.Ceil(bounds.Width()/cellSize))),
		rows:     max(1, int(math.Ceil(bounds.Height()/cellSize))),
		invCell:  1 / cellSize,
	}
	g.margin = 1e-12 * (math.Abs(bounds.MinX) + math.Abs(bounds.MinY) +
		float64(g.cols+g.rows)*cellSize)
	// Counting sort by cell: count, prefix-sum, then place each point
	// at its cell's next free slot, which keeps insertion order within
	// a cell.
	cellOf := make([]int32, len(pts))
	g.cellStart = make([]int32, g.cols*g.rows+1)
	for i, p := range pts {
		c := g.cellOf(p)
		cellOf[i] = int32(c)
		g.cellStart[c+1]++
	}
	for c := 1; c < len(g.cellStart); c++ {
		g.cellStart[c] += g.cellStart[c-1]
	}
	next := make([]int32, g.cols*g.rows)
	copy(next, g.cellStart)
	g.pts = make([]Point, len(pts))
	g.ids = make([]int, len(pts))
	g.order = make([]int32, len(pts))
	for i, p := range pts {
		k := next[cellOf[i]]
		next[cellOf[i]]++
		g.pts[k] = p
		g.ids[k] = ids[i]
		g.order[k] = int32(i)
	}
	return g, nil
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.ids) }

// Bounds returns the nominal bounds of the index.
func (g *Grid) Bounds() Rect { return g.bounds }

// cellCoord maps a coordinate to its clamped cell column (or row) in
// [0, n).
func cellCoord(v, lo, cellSize float64, n int) int {
	return clampCell((v-lo)/cellSize, n)
}

// clampCell truncates the fractional cell coordinate f into [0, n).
// The clamp happens in floating point, so a huge or non-finite
// coordinate lands in a boundary cell instead of overflowing the
// integer conversion.
func clampCell(f float64, n int) int {
	switch {
	case !(f > 0): // also NaN
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

func (g *Grid) cellOf(p Point) int {
	return cellCoord(p.Y, g.bounds.MinY, g.cellSize, g.rows)*g.cols +
		cellCoord(p.X, g.bounds.MinX, g.cellSize, g.cols)
}

// ringSlack widens Nearest's ring cut-off by a relative 1e-9, and
// Grid.margin narrows the ring bound by an absolute allowance scaled
// to the grid's coordinates, so that rounding in cell assignment or in
// the squared distances can never end the search a ring early; an
// extra ring only costs time.
const ringSlack = 1 + 1e-9

// Nearest returns the ID and distance of the indexed point closest to
// p. Exact ties are broken by the lowest insertion index. ok is false
// only when the index is empty or p is not finite: any finite query
// finds its nearest point, even when the squared distances overflow.
func (g *Grid) Nearest(p Point) (id int, dist float64, ok bool) {
	if len(g.ids) == 0 || !p.Finite() {
		return 0, 0, false
	}
	// A multiply by the inverse cell size is cheaper than cellOf's
	// divide; where the two round differently the query sits within
	// rounding of the cell edge, which the cut-off's margin absorbs.
	cx := clampCell((p.X-g.bounds.MinX)*g.invCell, g.cols)
	cy := clampCell((p.Y-g.bounds.MinY)*g.invCell, g.rows)
	s := nearestScan{x: p.X, y: p.Y, best: -1, bestD2: math.Inf(1)}
	// The 3×3 block around the query cell is three row spans, middle
	// row (with the query's own cell) first; it almost always holds
	// the answer, so the ring-by-ring search starts beyond it.
	g.rowSpan(&s, cy, cx-1, cx+1)
	g.rowSpan(&s, cy-1, cx-1, cx+1)
	g.rowSpan(&s, cy+1, cx-1, cx+1)
	for ring := 2; ring < max(g.cols, g.rows); ring++ {
		// Points in ring r are more than r-1 cells away, so once a
		// candidate is that close nothing in this ring or beyond can
		// beat it.
		if lim := float64(ring-1)*g.cellSize - g.margin; s.best >= 0 && lim > 0 && lim*lim > s.bestD2*ringSlack {
			break
		}
		g.scanRing(&s, cx, cy, ring)
	}
	if s.best < 0 {
		// Every squared distance overflowed to +Inf: the query is
		// finite but astronomically far away. Compare true distances
		// instead.
		return g.nearestHypot(p)
	}
	return g.ids[s.best], math.Sqrt(s.bestD2), true
}

// nearestScan is Nearest's running minimum over squared distances.
type nearestScan struct {
	x, y   float64
	best   int // cell-sorted position, -1 before the first candidate
	bestD2 float64
}

// span folds the cell-sorted positions [lo, hi) into the minimum.
func (g *Grid) span(s *nearestScan, lo, hi int32) {
	x, y := s.x, s.y
	best, bestD2 := s.best, s.bestD2
	order := g.order
	for k, pt := range g.pts[lo:hi] {
		dx, dy := x-pt.X, y-pt.Y
		if d2 := dx*dx + dy*dy; d2 <= bestD2 {
			if i := int(lo) + k; d2 < bestD2 || (best >= 0 && order[i] < order[best]) {
				best, bestD2 = i, d2
			}
		}
	}
	s.best, s.bestD2 = best, bestD2
}

// rowSpan folds the cells x0..x1 (clipped; the range always overlaps
// the grid's columns) of row y into the minimum: one contiguous span
// of the cell-sorted arrays.
func (g *Grid) rowSpan(s *nearestScan, y, x0, x1 int) {
	if y < 0 || y >= g.rows {
		return
	}
	x0, x1 = max(x0, 0), min(x1, g.cols-1)
	g.span(s, g.cellStart[y*g.cols+x0], g.cellStart[y*g.cols+x1+1])
}

// scanRing folds the square ring of cells at Chebyshev distance ring
// from (cx, cy) into the minimum: its top and bottom rows as one span
// each, then the single cells of its left and right columns.
func (g *Grid) scanRing(s *nearestScan, cx, cy, ring int) {
	x0, x1 := cx-ring, cx+ring
	g.rowSpan(s, cy-ring, x0, x1)
	g.rowSpan(s, cy+ring, x0, x1)
	for y := max(cy-ring+1, 0); y <= min(cy+ring-1, g.rows-1); y++ {
		if x0 >= 0 {
			g.rowSpan(s, y, x0, x0)
		}
		if x1 < g.cols {
			g.rowSpan(s, y, x1, x1)
		}
	}
}

// nearestHypot is Nearest's overflow fallback: a linear scan comparing
// math.Hypot distances, which stay finite wherever the true distance
// is, with exact ties broken by the lowest insertion index.
func (g *Grid) nearestHypot(p Point) (int, float64, bool) {
	best, bestD := -1, 0.0
	for k, pt := range g.pts {
		d := math.Hypot(p.X-pt.X, p.Y-pt.Y)
		if best < 0 || d < bestD || (d == bestD && g.order[k] < g.order[best]) {
			best, bestD = k, d
		}
	}
	return g.ids[best], bestD, true
}

// Neighbor is a query result: an indexed point's ID and its distance
// from the query location.
type Neighbor struct {
	ID       int
	Distance float64
}

// Within returns all indexed points at distance <= radius from p,
// sorted by ascending distance (ties by ID).
func (g *Grid) Within(p Point, radius float64) []Neighbor {
	if radius < 0 || len(g.ids) == 0 {
		return nil
	}
	var out []Neighbor
	g.forEachSpanNear(p, radius, func(lo, hi int32) {
		for k := lo; k < hi; k++ {
			d := p.DistanceTo(g.pts[k])
			if d <= radius {
				out = append(out, Neighbor{ID: g.ids[k], Distance: d})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// forEachSpanNear calls fn with the cell-sorted span of each row of
// cells that the square of half-width radius around p overlaps, rows
// ascending.
func (g *Grid) forEachSpanNear(p Point, radius float64, fn func(lo, hi int32)) {
	x0 := cellCoord(p.X-radius, g.bounds.MinX, g.cellSize, g.cols)
	x1 := cellCoord(p.X+radius, g.bounds.MinX, g.cellSize, g.cols)
	y0 := cellCoord(p.Y-radius, g.bounds.MinY, g.cellSize, g.rows)
	y1 := cellCoord(p.Y+radius, g.bounds.MinY, g.cellSize, g.rows)
	for y := y0; y <= y1; y++ {
		fn(g.cellStart[y*g.cols+x0], g.cellStart[y*g.cols+x1+1])
	}
}

// Pair is an unordered pair of indexed point IDs with their distance.
type Pair struct {
	A, B     int
	Distance float64
}

// Pairs enumerates every unordered pair of indexed points whose
// distance is <= radius. Each pair is reported once with A and B in
// insertion order of the underlying points.
func (g *Grid) Pairs(radius float64) []Pair {
	if radius < 0 {
		return nil
	}
	pos := make([]int32, len(g.order)) // insertion index -> cell-sorted position
	for k, i := range g.order {
		pos[i] = int32(k)
	}
	var out []Pair
	for i, ki := range pos {
		p := g.pts[ki]
		g.forEachSpanNear(p, radius, func(lo, hi int32) {
			for k := lo; k < hi; k++ {
				if int(g.order[k]) <= i {
					continue
				}
				d := p.DistanceTo(g.pts[k])
				if d <= radius {
					out = append(out, Pair{A: g.ids[ki], B: g.ids[k], Distance: d})
				}
			}
		})
	}
	return out
}
