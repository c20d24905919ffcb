package similarity

import (
	"math"
	"math/rand"
	"testing"
)

func randomSet(rng *rand.Rand, universe, size int) Set {
	ids := make([]int, size)
	for k := range ids {
		ids[k] = rng.Intn(universe)
	}
	return NewSet(ids...)
}

// TestBitSetJaccardEquivalence is the golden equivalence contract: the
// popcount kernel must agree with the map kernel on randomized sets to
// 1e-15 (both compute exact integer intersection/union, so the match is
// in fact bit-exact).
func TestBitSetJaccardEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(5000)
		sets := make([]Set, 2+rng.Intn(6))
		for i := range sets {
			sets[i] = randomSet(rng, universe, rng.Intn(200))
		}
		bs, ok := NewBitSets(sets)
		if !ok {
			t.Fatalf("trial %d: NewBitSets refused universe %d", trial, universe)
		}
		for i := range sets {
			for j := range sets {
				want := Jaccard(sets[i], sets[j])
				got := bs[i].Jaccard(&bs[j])
				if math.Abs(got-want) > 1e-15 {
					t.Fatalf("trial %d: bitset Jaccard(%d, %d) = %v, map = %v", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestBitSetBasics(t *testing.T) {
	sets := []Set{NewSet(1, 5, 64, 200), NewSet(), NewSet(5, 200)}
	bs, ok := NewBitSets(sets)
	if !ok {
		t.Fatal("NewBitSets failed on a small universe")
	}
	if got := bs[0].Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	for _, id := range []int{1, 5, 64, 200} {
		if !bs[0].Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range []int{0, 2, 63, 201, -7, 1 << 30} {
		if bs[0].Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
	if got := bs[1].Jaccard(&bs[1]); got != 1 {
		t.Errorf("empty∩empty Jaccard = %v, want 1", got)
	}
	if got := bs[0].Jaccard(&bs[2]); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5 (2 of 4)", got)
	}
	if got := bs[0].JaccardDistance(&bs[2]); got != 0.5 {
		t.Errorf("JaccardDistance = %v, want 0.5", got)
	}
}

// TestBitSetNegativeIDs checks the base-offset path: ids below zero
// pack correctly and compare exactly against the map kernel.
func TestBitSetNegativeIDs(t *testing.T) {
	a := NewSet(-130, -1, 0, 77)
	b := NewSet(-130, 77, 90)
	bs, ok := NewBitSets([]Set{a, b})
	if !ok {
		t.Fatal("NewBitSets failed on negative ids")
	}
	if got, want := bs[0].Jaccard(&bs[1]), Jaccard(a, b); got != want {
		t.Errorf("Jaccard = %v, want %v", got, want)
	}
	if !bs[0].Contains(-130) || bs[1].Contains(-1) {
		t.Error("membership wrong around negative base")
	}
}

// TestBitSetSpanFallback: a universe too sparse to pack must be
// refused so DistanceMatrix falls back to the map kernel.
func TestBitSetSpanFallback(t *testing.T) {
	if _, ok := NewBitSets([]Set{NewSet(0, maxBitSetSpan+1)}); ok {
		t.Fatal("NewBitSets accepted a span beyond maxBitSetSpan")
	}
	// The matrix must still come out right via the fallback.
	sets := []Set{NewSet(0, maxBitSetSpan+1), NewSet(0), NewSet(maxBitSetSpan + 1)}
	d := DistanceMatrix(sets, 1)
	if want := 1 - Jaccard(sets[0], sets[1]); d[0][1] != want {
		t.Errorf("fallback matrix d[0][1] = %v, want %v", d[0][1], want)
	}
}

// TestBitSetJaccardAllocs locks the zero-allocation contract of the
// pairwise kernel, the inner loop of the O(n²) distance matrix.
func TestBitSetJaccardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bs, ok := NewBitSets([]Set{randomSet(rng, 4000, 300), randomSet(rng, 4000, 300)})
	if !ok {
		t.Fatal("NewBitSets failed")
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += bs[0].Jaccard(&bs[1])
	})
	if allocs != 0 {
		t.Errorf("bitset Jaccard allocates %v objects per call, want 0", allocs)
	}
	_ = sink
}

// TestDistanceMatrixKernelAgreement pins DistanceMatrix's bitset path
// against the map kernel at full-matrix granularity and across worker
// counts.
func TestDistanceMatrixKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := make([]Set, 40)
	for i := range sets {
		sets[i] = randomSet(rng, 3000, 120)
	}
	want := make([][]float64, len(sets))
	for i := range sets {
		want[i] = make([]float64, len(sets))
		for j := range sets {
			if i != j {
				want[i][j] = JaccardDistance(sets[i], sets[j])
			}
		}
	}
	for _, workers := range []int{1, 4, 8} {
		got := DistanceMatrix(sets, workers)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: d[%d][%d] = %v, want %v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
