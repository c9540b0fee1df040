package bitpack

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRaceSharedMaskDisjointRanges is the kernel-level race check of the
// parallel-chunk contract: two goroutines filling (then expanding) disjoint
// 64-aligned ranges of one shared BitMask must never touch a common word.
// Run under -race via `make race-hot`; the final mask must also equal the
// serial scalar fill bit for bit.
func TestRaceSharedMaskDisjointRanges(t *testing.T) {
	const n = 768*4 + 65 // ragged tail rides with the last range
	r := rand.New(rand.NewSource(7))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(r.NormFloat64())
	}
	bounds := []int{0, 768, 1536, 2304, n} // 64-aligned interior boundaries

	for iter := 0; iter < 50; iter++ {
		m := NewBitMask(n)
		var wg sync.WaitGroup
		for c := 0; c+1 < len(bounds); c++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				m.FillPositiveRange(xs[lo:], lo, hi)
			}(bounds[c], bounds[c+1])
		}
		wg.Wait()

		dst := make([]float32, n)
		wg = sync.WaitGroup{}
		for c := 0; c+1 < len(bounds); c++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				m.ExpandRange(dst[lo:], lo, hi)
			}(bounds[c], bounds[c+1])
		}
		wg.Wait()

		want := NewBitMask(n)
		want.fillPositiveRangeScalar(xs, 0, n)
		for w := range want.words {
			if m.words[w] != want.words[w] {
				t.Fatalf("iter %d: word %d = %#016x, want %#016x",
					iter, w, m.words[w], want.words[w])
			}
		}
		for i := range dst {
			want := float32(0)
			if xs[i] > 0 {
				want = 1
			}
			if dst[i] != want {
				t.Fatalf("iter %d: dst[%d] = %v, want %v", iter, i, dst[i], want)
			}
		}
	}
}
