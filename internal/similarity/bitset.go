package similarity

import "math/bits"

// BitSet is a packed membership vector over a contiguous id universe:
// bit (id - base) of the word array is set when id is a member. All
// BitSets built by one NewBitSets call share the same base, which is
// what makes the word-parallel Jaccard kernel valid between them.
//
// The packed representation exists for the O(n²) pairwise-similarity
// hot path and for per-request membership loops: a Jaccard evaluation
// runs AND/OR + popcount over a few dozen words instead of merging two
// sorted Sets, a membership test is one bit test instead of a binary
// search, and neither allocates. Unlike a Set, a BitSet is mutable (Add,
// Reset): it is also the working form a placement row is built in
// before it is emitted as a Set.
type BitSet struct {
	base  int // smallest representable id, aligned down to a multiple of 64
	words []uint64
	count int // cached cardinality
}

// maxBitSetSpan bounds the id span (max id - min id) NewBitSets will
// pack. Beyond it the dense representation would cost more memory than
// the sorted Sets it mirrors, so callers fall back to the Set kernels.
// 1<<21 bits is 256 KiB per set — far above any realistic video
// catalogue in this repository.
const maxBitSetSpan = 1 << 21

// NewBitSets packs sets into BitSets sharing one base so they can be
// compared with BitSet.Jaccard. It reports ok=false — and callers must
// fall back to the Set kernels — when the id span exceeds
// maxBitSetSpan.
func NewBitSets(sets []Set) ([]BitSet, bool) {
	out := make([]BitSet, len(sets))
	lo, hi, nonEmpty := idSpan(sets)
	if !nonEmpty {
		return out, true // all sets empty: zero words suffice
	}
	if hi-lo >= maxBitSetSpan {
		return nil, false
	}
	base := lo &^ 63 // align down so bit offsets stay non-negative
	nWords := (hi-base)/64 + 1
	words := make([]uint64, len(sets)*nWords) // one backing array for locality
	for i, s := range sets {
		w := words[i*nWords : (i+1)*nWords : (i+1)*nWords]
		for _, id := range s.ids {
			off := int(id) - base
			w[off>>6] |= 1 << (off & 63)
		}
		out[i] = BitSet{base: base, words: w, count: len(s.ids)}
	}
	return out, true
}

// idSpan returns the smallest and largest member over sets; nonEmpty
// is false when every set is empty.
func idSpan(sets []Set) (lo, hi int, nonEmpty bool) {
	for _, s := range sets {
		if len(s.ids) == 0 {
			continue
		}
		first, last := int(s.ids[0]), int(s.ids[len(s.ids)-1])
		if !nonEmpty {
			lo, hi, nonEmpty = first, last, true
			continue
		}
		lo, hi = min(lo, first), max(hi, last)
	}
	return lo, hi, nonEmpty
}

// NewBitSet returns an empty BitSet over the id universe [0, universe),
// for building a set by Add and emitting it with Set.
func NewBitSet(universe int) BitSet {
	return BitSet{words: make([]uint64, (max(universe, 0)+63)/64)}
}

// Add inserts id and reports whether it was absent. id must lie in the
// BitSet's universe; Add panics otherwise.
func (b *BitSet) Add(id int) bool {
	off := id - b.base
	w, bit := &b.words[off>>6], uint64(1)<<(off&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	b.count++
	return true
}

// Reset empties the BitSet, keeping its universe.
func (b *BitSet) Reset() {
	if b.count != 0 {
		clear(b.words)
		b.count = 0
	}
}

// Set emits the members as an immutable Set by one ascending bit scan.
func (b *BitSet) Set() Set {
	if b.count == 0 {
		return Set{}
	}
	ids := make([]int32, 0, b.count)
	for wi, w := range b.words {
		for w != 0 {
			ids = append(ids, int32(b.base+wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return Set{ids: ids}
}

// Lookup answers membership queries against a batch of Sets — one row
// per Set — for per-request loops: one bit test on packed BitSets when
// the batch packs (see NewBitSets), a binary search on the Set when its
// id span is too sparse to pack.
type Lookup struct {
	sets []Set
	bits []BitSet
}

// NewLookup packs sets for membership queries.
func NewLookup(sets []Set) Lookup {
	bs, _ := NewBitSets(sets) // nil when the batch does not pack
	return Lookup{sets: sets, bits: bs}
}

// Contains reports whether id is a member of the row-th set.
func (l *Lookup) Contains(row, id int) bool {
	if l.bits != nil {
		return l.bits[row].Contains(id)
	}
	return l.sets[row].Contains(id)
}

// Len returns the cardinality.
func (b *BitSet) Len() int { return b.count }

// Contains reports whether id is a member.
func (b *BitSet) Contains(id int) bool {
	off := id - b.base
	if off < 0 || off>>6 >= len(b.words) {
		return false
	}
	return b.words[off>>6]&(1<<(off&63)) != 0
}

// Jaccard returns |a ∩ b| / |a ∪ b| computed word-parallel with
// popcounts. Both sets must come from the same NewBitSets batch (same
// base); intersection and union are exact integers, so the result is
// bit-identical to Jaccard over the equivalent Sets. Two empty sets
// have similarity 1, matching the Set kernel's convention.
func (b *BitSet) Jaccard(o *BitSet) float64 {
	inter, union := 0, 0
	wa, wb := b.words, o.words
	n := len(wa)
	if len(wb) < n {
		n = len(wb)
	}
	for k := 0; k < n; k++ {
		inter += bits.OnesCount64(wa[k] & wb[k])
		union += bits.OnesCount64(wa[k] | wb[k])
	}
	for _, w := range wa[n:] {
		union += bits.OnesCount64(w)
	}
	for _, w := range wb[n:] {
		union += bits.OnesCount64(w)
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard(b, o), the content-aware distance
// Jd of Eq. 13 on the packed representation.
func (b *BitSet) JaccardDistance(o *BitSet) float64 { return 1 - b.Jaccard(o) }
