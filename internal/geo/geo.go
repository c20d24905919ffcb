// Package geo provides planar and spherical geometry primitives used by
// the crowdsourced-CDN simulator: points on a local kilometre plane,
// rectangles, lat/lon coordinates with haversine distance, an
// equirectangular projection between the two, and a uniform-grid spatial
// index for nearest-neighbour and range queries.
//
// Following the paper, network latency between two devices is modelled
// as proportional to their geographic distance, so all "latency" values
// in this repository are kilometres on the plane.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0088

// Point is a location on the local planar projection, in kilometres.
type Point struct {
	X float64 // east, km
	Y float64 // north, km
}

// DistanceTo returns the Euclidean distance to q in kilometres.
func (p Point) DistanceTo(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Finite reports whether both coordinates are finite (neither NaN nor
// ±Inf).
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle on the plane, in kilometres.
// MinX <= MaxX and MinY <= MaxY for a valid rectangle.
type Rect struct {
	MinX, MinY float64
	MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// Width returns the horizontal extent in kilometres.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent in kilometres.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area in square kilometres.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Diagonal returns the corner-to-corner distance in kilometres. The
// paper uses the evaluation rectangle's diagonal (~20 km for 17x11 km)
// as the access distance charged to requests served by the CDN origin.
func (r Rect) Diagonal() float64 {
	return math.Sqrt(r.Width()*r.Width() + r.Height()*r.Height())
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest location inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Valid reports whether the rectangle has non-negative extents.
func (r Rect) Valid() bool { return r.MaxX >= r.MinX && r.MaxY >= r.MinY }

// LatLon is a geographic coordinate in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// Haversine returns the great-circle distance between a and b in
// kilometres.
func Haversine(a, b LatLon) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Projection converts between lat/lon coordinates and the local
// kilometre plane using an equirectangular approximation anchored at an
// origin. The approximation is accurate to well under 1% over the tens
// of kilometres spanned by a metropolitan deployment, matching the
// paper's distance-as-latency assumption.
type Projection struct {
	origin LatLon
	cosLat float64
}

// NewProjection returns a projection anchored at origin. The origin
// maps to Point{0, 0}.
func NewProjection(origin LatLon) *Projection {
	return &Projection{
		origin: origin,
		cosLat: math.Cos(origin.Lat * math.Pi / 180),
	}
}

// Origin returns the anchoring coordinate.
func (pr *Projection) Origin() LatLon { return pr.origin }

// ToPlane converts a geographic coordinate to the local plane.
func (pr *Projection) ToPlane(ll LatLon) Point {
	const kmPerDeg = math.Pi / 180 * EarthRadiusKm
	return Point{
		X: (ll.Lon - pr.origin.Lon) * kmPerDeg * pr.cosLat,
		Y: (ll.Lat - pr.origin.Lat) * kmPerDeg,
	}
}

// ToLatLon converts a local plane point back to geographic coordinates.
func (pr *Projection) ToLatLon(p Point) LatLon {
	const degPerKm = 180 / math.Pi / EarthRadiusKm
	return LatLon{
		Lat: pr.origin.Lat + p.Y*degPerKm,
		Lon: pr.origin.Lon + p.X*degPerKm/pr.cosLat,
	}
}
