package similarity

import (
	"math/rand"
	"testing"
)

// The bitset-vs-map kernel pair quantifies the win of the packed
// representation on the clustering stage's O(n²) inner loop; the
// distance-matrix benches measure it end to end.

func benchSets(b *testing.B, universe, size int) (Set, Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	return randomSet(rng, universe, size), randomSet(rng, universe, size)
}

func BenchmarkJaccardSet(b *testing.B) {
	sa, sb := benchSets(b, 4000, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Jaccard(sa, sb)
	}
}

func BenchmarkJaccardBitset(b *testing.B) {
	sa, sb := benchSets(b, 4000, 300)
	bs, ok := NewBitSets([]Set{sa, sb})
	if !ok {
		b.Fatal("NewBitSets failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bs[0].Jaccard(&bs[1])
	}
}

// signatureSets draws n top-k content signatures of size ids each
// from a catalogue the way the clustering stage sees them: almost all
// members come from a popular head of 1,000 videos that every hotspot
// shares (scattered over the catalogue's id range), the rest from the
// long tail, so the batch's union is a small fraction of the catalogue.
func signatureSets(rng *rand.Rand, n, size, catalogue int) []Set {
	head := rng.Perm(catalogue)[:1000]
	sets := make([]Set, n)
	for i := range sets {
		seen := make(map[int]bool, size)
		ids := make([]int, 0, size)
		for len(ids) < size {
			id := rng.Intn(catalogue)
			if rng.Float64() < 0.97 {
				id = head[rng.Intn(len(head))]
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sets[i] = NewSet(ids...)
	}
	return sets
}

func BenchmarkDistanceMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	uniform := make([]Set, 200)
	for i := range uniform {
		uniform[i] = randomSet(rng, 4000, 150)
	}
	for _, bc := range []struct {
		name string
		sets []Set
	}{
		{"uniform", uniform},
		// 310 hotspot signatures of ~60 videos from a 15k catalogue:
		// the eval-scale clustering batch.
		{"signatures", signatureSets(rng, 310, 60, 15000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = DistanceMatrix(bc.sets, 1)
			}
		})
	}
}
