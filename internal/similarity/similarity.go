// Package similarity provides content-set similarity primitives: the
// Jaccard coefficient over video sets and extraction of the "top-X%"
// content set of a hotspot from its demand vector. The paper uses the
// Jaccard similarity of nearby hotspots' top-20% content sets both in
// its measurement study (Fig. 3b) and as the clustering distance of the
// content-aggregation stage (Eq. 13).
package similarity

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/par"
)

// Set is an immutable set of integer identifiers (video or hotspot
// ids), held as a strictly ascending int32 slice. A Set is built once —
// by NewSet, FromAscending, Ranker.TopK or a BitSet scan — and never
// mutated afterwards, so Sets may be shared freely between plans,
// retained scheduler state and serving frontends. Contains is a binary
// search, Len is free, and ascending iteration (At) needs no sort. The
// zero value is the empty set.
//
// Set is a struct rather than a named slice so that a map-style
// `for id := range set` does not compile.
type Set struct{ ids []int32 }

// NewSet builds a set from ids, dropping duplicates. Every id must lie
// in the int32 range; NewSet panics otherwise.
func NewSet(ids ...int) Set {
	if len(ids) == 0 {
		return Set{}
	}
	out := make([]int32, len(ids))
	for i, id := range ids {
		if id < math.MinInt32 || id > math.MaxInt32 {
			panic(fmt.Sprintf("similarity: id %d outside the int32 range", id))
		}
		out[i] = int32(id)
	}
	slices.Sort(out)
	return Set{ids: slices.Compact(out)}
}

// FromAscending wraps ids, which must be strictly ascending, as a Set
// without copying. The caller hands ids over and must not modify them
// afterwards.
func FromAscending(ids []int32) (Set, error) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return Set{}, fmt.Errorf("similarity: ids not strictly ascending at %d (%d after %d)", i, ids[i], ids[i-1])
		}
	}
	return Set{ids: ids}, nil
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s.ids) }

// At returns the i-th smallest member, 0 <= i < Len().
func (s Set) At(i int) int { return int(s.ids[i]) }

// Contains reports whether id is in the set.
func (s Set) Contains(id int) bool {
	if id < math.MinInt32 || id > math.MaxInt32 {
		return false
	}
	_, found := slices.BinarySearch(s.ids, int32(id))
	return found
}

// Sorted returns the members in ascending order as a fresh slice.
func (s Set) Sorted() []int {
	out := make([]int, len(s.ids))
	for i, id := range s.ids {
		out[i] = int(id)
	}
	return out
}

// Prefix returns the set of the n smallest members (all of them when
// n >= Len()). The result shares s's storage, which is safe because
// neither is ever mutated.
func (s Set) Prefix(n int) Set {
	if n >= len(s.ids) {
		return s
	}
	if n <= 0 {
		return Set{}
	}
	return Set{ids: s.ids[:n:n]}
}

// With returns s ∪ {id}: s itself when id is already a member, a fresh
// Set otherwise. id must lie in the int32 range.
func (s Set) With(id int) Set {
	if id < math.MinInt32 || id > math.MaxInt32 {
		panic(fmt.Sprintf("similarity: id %d outside the int32 range", id))
	}
	v := int32(id)
	i, found := slices.BinarySearch(s.ids, v)
	if found {
		return s
	}
	out := make([]int32, len(s.ids)+1)
	copy(out, s.ids[:i])
	out[i] = v
	copy(out[i+1:], s.ids[i:])
	return Set{ids: out}
}

// Equal reports whether a and b have the same members.
func Equal(a, b Set) bool { return slices.Equal(a.ids, b.ids) }

// intersectLen returns |a ∩ b| by merging the two ascending slices.
func intersectLen(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// DifferenceLen returns |a \ b|, the number of members of a that b
// lacks (e.g. the replicas a new placement row pushes over the previous
// one).
func DifferenceLen(a, b Set) int { return len(a.ids) - intersectLen(a.ids, b.ids) }

// Jaccard returns |a ∩ b| / |a ∪ b| (Eq. 1 of the paper). Two empty
// sets are defined to have similarity 1 (identical), matching the
// convention that an empty hotspot is trivially similar to another
// empty one.
func Jaccard(a, b Set) float64 {
	if len(a.ids) == 0 && len(b.ids) == 0 {
		return 1
	}
	inter := intersectLen(a.ids, b.ids)
	union := len(a.ids) + len(b.ids) - inter
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard(a, b), the content-aware distance
// Jd of Eq. 13.
func JaccardDistance(a, b Set) float64 { return 1 - Jaccard(a, b) }

// DistanceMatrix computes the full pairwise JaccardDistance matrix of
// sets. The O(n²) pair evaluations — the dominant cost of the
// content-clustering stage on large fleets — run on the packed BitSet
// popcount kernel over the batch's compacted universe (see
// compactBitSets; falling back to the sorted-merge kernel when even
// that is too large to pack) and fan out over workers goroutines (0
// selects GOMAXPROCS, 1 is serial); rows are striped across workers
// and each unordered pair is computed exactly once, so the result is
// identical for every worker count — and, because both kernels compute
// the same exact integer intersection/union, identical between kernels
// too. The diagonal is 0.
func DistanceMatrix(sets []Set, workers int) [][]float64 {
	n := len(sets)
	d := make([][]float64, n)
	rows := make([]float64, n*n)
	for i := range d {
		d[i] = rows[i*n : (i+1)*n : (i+1)*n]
	}
	// Row i computes the upper triangle j > i and mirrors into d[j][i];
	// every cell has exactly one writer, so no synchronisation is
	// needed. Striding balances the shrinking rows across workers.
	if bs, ok := compactBitSets(sets); ok {
		par.Strided(n, par.Workers(workers), func(i int) {
			bi := &bs[i]
			for j := i + 1; j < n; j++ {
				v := bi.JaccardDistance(&bs[j])
				d[i][j] = v
				d[j][i] = v
			}
		})
		return d
	}
	par.Strided(n, par.Workers(workers), func(i int) {
		for j := i + 1; j < n; j++ {
			v := JaccardDistance(sets[i], sets[j])
			d[i][j] = v
			d[j][i] = v
		}
	})
	return d
}

// compactBitSets packs sets for the pairwise kernel after relabelling
// every id to its rank in the ascending union of the batch. A batch of
// top-k signatures draws on a small slice of a large catalogue, so the
// ranks span a few dozen words where the raw ids span hundreds; the
// relabelling is a bijection on the union, so every intersection and
// union count — and therefore every distance — is unchanged. The union
// is found by marking the members in one bitmap over the raw id span,
// whose prefix popcounts then give each id's rank in O(1); ok is false
// when that span exceeds maxBitSetSpan, the bound NewBitSets applies.
func compactBitSets(sets []Set) ([]BitSet, bool) {
	out := make([]BitSet, len(sets))
	lo, hi, nonEmpty := idSpan(sets)
	if !nonEmpty {
		return out, true // all sets empty: zero words suffice
	}
	if hi-lo >= maxBitSetSpan {
		return nil, false
	}
	marks := make([]uint64, (hi-lo)/64+1)
	for _, s := range sets {
		for _, id := range s.ids {
			off := int(id) - lo
			marks[off>>6] |= 1 << (off & 63)
		}
	}
	rankBefore := make([]int32, len(marks)) // union members below each mark word
	universe := 0
	for w, m := range marks {
		rankBefore[w] = int32(universe)
		universe += bits.OnesCount64(m)
	}
	nWords := (universe + 63) / 64
	words := make([]uint64, len(sets)*nWords) // one backing array for locality
	for i, s := range sets {
		w := words[i*nWords : (i+1)*nWords : (i+1)*nWords]
		for _, id := range s.ids {
			off := int(id) - lo
			r := int(rankBefore[off>>6]) + bits.OnesCount64(marks[off>>6]&(1<<(off&63)-1))
			w[r>>6] |= 1 << (r & 63)
		}
		out[i] = BitSet{words: w, count: len(s.ids)}
	}
	return out, true
}

// TopFraction returns the items accounting for the top frac of entries
// by demand, i.e. the ceil(frac*|support|) most-demanded items. The
// paper uses frac = 0.20 ("Top-20%"), justified by the Pareto 80/20
// rule of video popularity. Ties are broken deterministically by
// smaller identifier. frac must be in (0, 1].
func TopFraction(demand map[int]int64, frac float64) (Set, error) {
	r := rankerOf(demand)
	return r.TopFraction(frac)
}

// TopK returns the k most-demanded items (all items when k exceeds the
// support). Ties are broken deterministically by smaller identifier.
func TopK(demand map[int]int64, k int) (Set, error) {
	r := rankerOf(demand)
	return r.TopK(k)
}

// rankerOf loads a demand map into a fresh Ranker.
func rankerOf(demand map[int]int64) Ranker {
	r := Ranker{entries: make([]entry, 0, len(demand))}
	for id, cnt := range demand {
		r.Add(id, cnt)
	}
	return r
}

// entry is one (item, demand) pair of a demand vector being ranked.
type entry struct {
	id  int
	cnt int64
}

// cmpEntry orders entries by descending demand, ties broken by smaller
// identifier — a strict total order, so any comparison sort or
// selection yields the same deterministic ranking.
func cmpEntry(a, b entry) int {
	switch {
	case a.cnt != b.cnt:
		if a.cnt > b.cnt {
			return -1
		}
		return 1
	case a.id != b.id:
		if a.id < b.id {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Ranker ranks one demand vector at a time without an intermediate
// map: Reset, Add each (id, count) pair once, then take TopK or
// TopFraction. Its scratch is reused across vectors. The zero value is
// ready to use; a Ranker is not safe for concurrent use.
type Ranker struct{ entries []entry }

// Reset empties the ranker, keeping its scratch.
func (r *Ranker) Reset() { r.entries = r.entries[:0] }

// Add appends one (id, count) pair. Each id may be added at most once
// per Reset.
func (r *Ranker) Add(id int, count int64) { r.entries = append(r.entries, entry{id: id, cnt: count}) }

// TopFraction is the package-level TopFraction over the added pairs.
func (r *Ranker) TopFraction(frac float64) (Set, error) {
	if frac <= 0 || frac > 1 {
		return Set{}, fmt.Errorf("similarity: fraction %v outside (0, 1]", frac)
	}
	if len(r.entries) == 0 {
		return Set{}, nil
	}
	k := int(float64(len(r.entries))*frac + 0.999999)
	if k < 1 {
		k = 1
	}
	return r.TopK(k)
}

// TopK is the package-level TopK over the added pairs. It selects the k
// best pairs under the strict (count desc, id asc) order by partial
// selection instead of ranking the whole vector, then sorts only the k
// selected ids. The pairs are reordered.
func (r *Ranker) TopK(k int) (Set, error) {
	if k < 0 {
		return Set{}, fmt.Errorf("similarity: negative k %d", k)
	}
	if k > len(r.entries) {
		k = len(r.entries)
	}
	if k == 0 {
		return Set{}, nil
	}
	SelectTop(r.entries, k, cmpEntry)
	ids := make([]int32, k)
	for i, e := range r.entries[:k] {
		if e.id < math.MinInt32 || e.id > math.MaxInt32 {
			return Set{}, fmt.Errorf("similarity: id %d outside the int32 range", e.id)
		}
		ids[i] = int32(e.id)
	}
	slices.Sort(ids)
	s, err := FromAscending(ids)
	if err != nil {
		return Set{}, fmt.Errorf("similarity: duplicate id in a demand vector: %w", err)
	}
	return s, nil
}
