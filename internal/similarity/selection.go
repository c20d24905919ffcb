package similarity

import (
	"math/bits"
	"slices"
)

// SelectTop reorders s so that s[:k] holds the k least elements under
// cmp, in unspecified order; s[k:] holds the rest. When cmp is a strict
// total order over the elements, the selected set is unique, so the
// result is as deterministic as a full sort followed by s[:k] — at
// O(len(s)) expected cost instead of O(len(s) log len(s)). It is an
// introselect: quickselect with median-of-three pivots that falls back
// to sorting the remaining range once it has partitioned 2·log2(n)
// times without converging. k outside (0, len(s)) leaves s unchanged.
func SelectTop[T any](s []T, k int, cmp func(a, b T) int) {
	if k <= 0 || k >= len(s) {
		return
	}
	lo, hi := 0, len(s)
	budget := 2 * bits.Len(uint(len(s)))
	for hi-lo > 16 {
		if budget == 0 {
			slices.SortFunc(s[lo:hi], cmp)
			return
		}
		budget--
		p := lo + partition(s[lo:hi], cmp)
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	// Insertion-sort the short remaining range around the boundary.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && cmp(s[j], s[j-1]) < 0; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// partition places a median-of-three pivot at its final position p and
// returns p: every element before it compares less than the pivot, and
// none after it does. len(s) must be at least 3.
func partition[T any](s []T, cmp func(a, b T) int) int {
	n := len(s)
	a, b, c := 0, n/2, n-1
	// Order s[a] <= s[b] <= s[c], then park the median at the end.
	if cmp(s[b], s[a]) < 0 {
		s[a], s[b] = s[b], s[a]
	}
	if cmp(s[c], s[b]) < 0 {
		s[b], s[c] = s[c], s[b]
		if cmp(s[b], s[a]) < 0 {
			s[a], s[b] = s[b], s[a]
		}
	}
	s[b], s[c] = s[c], s[b]
	pivot := s[c]
	p := 0
	for i := 0; i < c; i++ {
		if cmp(s[i], pivot) < 0 {
			s[i], s[p] = s[p], s[i]
			p++
		}
	}
	s[p], s[c] = s[c], s[p]
	return p
}
