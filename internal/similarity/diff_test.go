package similarity

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Differential tests: the sorted-slice Set and the selection-based
// ranking against straightforward map/sort references, on random
// inputs drawn from small id and count ranges so duplicates and ties
// are the norm.

// refSet is the reference set: a plain map.
type refSet map[int]struct{}

func randomIDs(rng *rand.Rand, universe, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(universe) - universe/4 // some negative ids too
	}
	return ids
}

func toRef(ids []int) refSet {
	r := make(refSet, len(ids))
	for _, id := range ids {
		r[id] = struct{}{}
	}
	return r
}

func refJaccard(a, b refSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for id := range a {
		if _, ok := b[id]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func TestSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(60)
		aIDs, bIDs := randomIDs(rng, universe, rng.Intn(80)), randomIDs(rng, universe, rng.Intn(80))
		a, b := NewSet(aIDs...), NewSet(bIDs...)
		ra, rb := toRef(aIDs), toRef(bIDs)
		if a.Len() != len(ra) {
			t.Fatalf("trial %d: Len %d, reference %d (NewSet dedup)", trial, a.Len(), len(ra))
		}
		for i := 1; i < a.Len(); i++ {
			if a.At(i) <= a.At(i-1) {
				t.Fatalf("trial %d: members not strictly ascending: %v", trial, a.Sorted())
			}
		}
		for id := -universe; id < 2*universe; id++ {
			_, want := ra[id]
			if a.Contains(id) != want {
				t.Fatalf("trial %d: Contains(%d) = %v, reference %v", trial, id, !want, want)
			}
		}
		if got, want := Jaccard(a, b), refJaccard(ra, rb); got != want {
			t.Fatalf("trial %d: Jaccard %v, reference %v", trial, got, want)
		}
		diff := 0
		for id := range ra {
			if _, ok := rb[id]; !ok {
				diff++
			}
		}
		if got := DifferenceLen(a, b); got != diff {
			t.Fatalf("trial %d: DifferenceLen %d, reference %d", trial, got, diff)
		}
		if Equal(a, b) != (len(ra) == len(rb) && diff == 0) {
			t.Fatalf("trial %d: Equal disagrees with the reference", trial)
		}
		id := rng.Intn(universe)
		grown := a.With(id)
		ra[id] = struct{}{}
		if !Equal(grown, NewSet(keys(ra)...)) {
			t.Fatalf("trial %d: With(%d) = %v", trial, id, grown.Sorted())
		}
	}
	if NewSet(1, 2).Contains(1<<40) || NewSet().Contains(0) {
		t.Error("Contains outside the members or the int32 range")
	}
}

func keys(r refSet) []int {
	out := make([]int, 0, len(r))
	for id := range r {
		out = append(out, id)
	}
	return out
}

// refTopK is the full-sort ranking TopK replaced: sort every entry by
// (count desc, id asc) and keep the first k.
func refTopK(demand map[int]int64, k int) []int {
	type e struct {
		id  int
		cnt int64
	}
	es := make([]e, 0, len(demand))
	for id, c := range demand {
		es = append(es, e{id, c})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].cnt != es[j].cnt {
			return es[i].cnt > es[j].cnt
		}
		return es[i].id < es[j].id
	})
	if k > len(es) {
		k = len(es)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = es[i].id
	}
	sort.Ints(out)
	return out
}

func TestTopKMatchesFullSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 1000; trial++ {
		demand := make(map[int]int64)
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			demand[rng.Intn(400)] = int64(1 + rng.Intn(4)) // heavy ties
		}
		k := rng.Intn(n + 2)
		got, err := TopK(demand, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := refTopK(demand, k); !slices.Equal(got.Sorted(), want) {
			t.Fatalf("trial %d: TopK(%d) = %v, reference %v", trial, k, got.Sorted(), want)
		}
		frac := 0.01 + 0.99*rng.Float64()
		got, err = TopFraction(demand, frac)
		if err != nil {
			t.Fatal(err)
		}
		k = int(float64(len(demand))*frac + 0.999999)
		if want := refTopK(demand, k); !slices.Equal(got.Sorted(), want) {
			t.Fatalf("trial %d: TopFraction(%v) = %v, reference %v", trial, frac, got.Sorted(), want)
		}
	}
}

func TestRankerRejectsDuplicateIDs(t *testing.T) {
	var r Ranker
	r.Add(3, 1)
	r.Add(3, 1)
	if _, err := r.TopK(2); err == nil {
		t.Error("TopK accepted a vector with a duplicate id")
	}
	r.Reset()
	r.Add(1<<40, 1)
	if _, err := r.TopK(1); err == nil {
		t.Error("TopK accepted an id outside the int32 range")
	}
}

// TestSelectTopMatchesSort checks the selection against a full sort for
// every k, including inputs made of equal elements, which drive the
// quickselect into its sorting fallback.
func TestSelectTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cmp := func(a, b int) int { return a - b }
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		span := 1 + rng.Intn(5)
		if trial%3 == 0 {
			span = 1000
		}
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(span)
		}
		want := slices.Clone(s)
		slices.Sort(want)
		for _, k := range []int{-1, 0, 1, n / 3, n / 2, n - 1, n, n + 1} {
			got := slices.Clone(s)
			SelectTop(got, k, cmp)
			if k <= 0 || k >= n {
				if !slices.Equal(got, s) {
					t.Fatalf("trial %d: k=%d outside (0, n) reordered the input", trial, k)
				}
				continue
			}
			head := slices.Clone(got[:k])
			slices.Sort(head)
			if !slices.Equal(head, want[:k]) {
				t.Fatalf("trial %d: k=%d selected %v, want %v", trial, k, head, want[:k])
			}
			rest := slices.Clone(got)
			slices.Sort(rest)
			if !slices.Equal(rest, want) {
				t.Fatalf("trial %d: k=%d lost elements", trial, k)
			}
		}
	}
}

func TestBitSetBuildAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	b := NewBitSet(300)
	for trial := 0; trial < 50; trial++ {
		b.Reset()
		ids := make([]int, rng.Intn(200))
		for i := range ids {
			ids[i] = rng.Intn(300)
		}
		ref := toRef(ids)
		for _, id := range ids {
			b.Add(id)
		}
		if b.Len() != len(ref) {
			t.Fatalf("trial %d: Len %d, reference %d", trial, b.Len(), len(ref))
		}
		if got := b.Set(); !Equal(got, NewSet(ids...)) {
			t.Fatalf("trial %d: scan %v, want %v", trial, got.Sorted(), NewSet(ids...).Sorted())
		}
		if b.Add(299); !b.Contains(299) || b.Add(299) {
			t.Fatalf("trial %d: Add of a member reported it absent", trial)
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Set().Len() != 0 {
		t.Error("Reset left members behind")
	}
}

func TestLookupMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sets := []Set{randomSet(rng, 500, 40), NewSet(), randomSet(rng, 500, 90)}
	sparse := append(slices.Clone(sets), NewSet(0, maxBitSetSpan+5))
	for _, batch := range [][]Set{sets, sparse} {
		l := NewLookup(batch)
		for row, s := range batch {
			for id := -2; id < 520; id++ {
				if l.Contains(row, id) != s.Contains(id) {
					t.Fatalf("Lookup.Contains(%d, %d) disagrees with the Set", row, id)
				}
			}
			if l.Contains(row, maxBitSetSpan+5) != s.Contains(maxBitSetSpan+5) {
				t.Fatalf("Lookup.Contains(%d, span) disagrees with the Set", row)
			}
		}
	}
}

// refDistanceMatrix is the sorted-merge kernel applied pair by pair.
func refDistanceMatrix(sets []Set) [][]float64 {
	d := make([][]float64, len(sets))
	for i := range sets {
		d[i] = make([]float64, len(sets))
		for j := range sets {
			if i != j {
				d[i][j] = JaccardDistance(sets[i], sets[j])
			}
		}
	}
	return d
}

// TestDistanceMatrixMatchesMergeKernel pins DistanceMatrix — packed
// over the batch's compacted universe, or the merge fallback when the
// raw span is too wide — to the Set merge kernel bit for bit, on the
// batch shapes the compaction could get wrong.
func TestDistanceMatrixMatchesMergeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	overlap := make([]Set, 30)
	for i := range overlap {
		overlap[i] = randomSet(rng, 90, 60) // heavy overlap on a tiny universe
	}
	sparse := make([]Set, 12)
	for i := range sparse {
		ids := make([]int, 1+rng.Intn(40))
		for k := range ids {
			ids[k] = rng.Intn(50) * 9973 // few distinct ids spread over a wide span
		}
		sparse[i] = NewSet(ids...)
	}
	mixed := make([]Set, 25)
	for i := range mixed {
		if i%3 != 0 {
			mixed[i] = randomSet(rng, 500, 1+rng.Intn(50))
		}
	}
	negative := []Set{NewSet(-70, -3, 0, 64), NewSet(-3, 64, 65), NewSet(-200, 5000)}
	tests := []struct {
		name string
		sets []Set
	}{
		{"empty batch", nil},
		{"one set", []Set{NewSet(3, 900, 15000)}},
		{"all empty", make([]Set, 5)},
		{"heavy overlap", overlap},
		{"wide sparse span", sparse},
		{"mixed empty and non-empty", mixed},
		{"negative ids", negative},
		{"span beyond maxBitSetSpan", []Set{NewSet(0, 7, maxBitSetSpan+5), NewSet(7), NewSet(maxBitSetSpan + 5), {}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := refDistanceMatrix(tt.sets)
			for _, workers := range []int{1, 3} {
				got := DistanceMatrix(tt.sets, workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("workers=%d: d[%d][%d] = %v, merge kernel %v", workers, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		})
	}
}

// TestCompactBitSetsUniverse checks that the packed rows span the
// batch's union, not its raw id range, and that a raw span beyond
// maxBitSetSpan is refused so DistanceMatrix takes the merge kernel.
func TestCompactBitSetsUniverse(t *testing.T) {
	sets := []Set{NewSet(10, 20000, 40000), NewSet(20000, 90000), {}}
	bs, ok := compactBitSets(sets)
	if !ok {
		t.Fatal("compactBitSets refused a packable batch")
	}
	for i, b := range bs {
		if len(b.words) > 1 {
			t.Errorf("set %d packed into %d words, want 1 for a 4-id union", i, len(b.words))
		}
		if b.Len() != sets[i].Len() {
			t.Errorf("set %d has %d members packed, want %d", i, b.Len(), sets[i].Len())
		}
	}
	if _, ok := compactBitSets([]Set{NewSet(0), NewSet(maxBitSetSpan)}); ok {
		t.Error("compactBitSets packed a raw span beyond maxBitSetSpan")
	}
}
