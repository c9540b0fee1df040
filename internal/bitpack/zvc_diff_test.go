package bitpack

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the ZVC kernels: word-parallel output must be
// byte-identical to the scalar references over the same size sweep and
// IEEE-corner inputs as the Binarize kernels, including split ranges that
// model the parallel chunk partition.

func TestDiffFillNonzeroRange(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range diffSizes() {
		xs := cornerFloats(r, n)
		for _, aligned := range []bool{false, true} {
			want := NewBitMask(n)
			want.fillNonzeroRangeScalar(xs, 0, n)
			got := NewBitMask(n)
			pts := splitPoints(r, n, aligned)
			for i := 0; i+1 < len(pts); i++ {
				got.FillNonzeroRange(xs, pts[i], pts[i+1])
			}
			for w := range want.words {
				if got.words[w] != want.words[w] {
					t.Fatalf("n=%d aligned=%v: word %d = %#016x, want %#016x",
						n, aligned, w, got.words[w], want.words[w])
				}
			}
		}
	}
}

// TestDiffFillAtLeastRange checks the thresholded mask kernel against a
// per-element magnitude compare, at thresholds from the plain nonzero test
// up to ones that drop most of a normal-distributed map.
func TestDiffFillAtLeastRange(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, min := range []uint32{1, 0x00800000, 0x38800000, 0x3f000000, 0x7f800000} {
		for _, n := range diffSizes() {
			xs := cornerFloats(r, n)
			want := NewBitMask(n)
			for i, v := range xs {
				want.Set(i, math.Float32bits(v)&0x7fffffff >= min)
			}
			got := NewBitMask(n)
			pts := splitPoints(r, n, true)
			for i := 0; i+1 < len(pts); i++ {
				got.FillAtLeastRange(xs, pts[i], pts[i+1], min)
			}
			for w := range want.words {
				if got.words[w] != want.words[w] {
					t.Fatalf("min=%#08x n=%d: word %d = %#016x, want %#016x", min, n, w, got.words[w], want.words[w])
				}
			}
		}
	}
}

func TestDiffPopCountRange(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range diffSizes() {
		m := FromNonzero(cornerFloats(r, n))
		pts := splitPoints(r, n, false)
		for i := 0; i+1 < len(pts); i++ {
			got := m.PopCountRange(pts[i], pts[i+1])
			want := m.popCountRangeScalar(pts[i], pts[i+1])
			if got != want {
				t.Fatalf("n=%d [%d,%d): PopCountRange = %d, want %d", n, pts[i], pts[i+1], got, want)
			}
		}
		// Range sums must agree with the whole-mask popcount.
		total := 0
		for i := 0; i+1 < len(pts); i++ {
			total += m.PopCountRange(pts[i], pts[i+1])
		}
		if total != m.PopCount() {
			t.Fatalf("n=%d: range popcounts sum to %d, PopCount = %d", n, total, m.PopCount())
		}
	}
}

func TestDiffGatherScatterNonzero(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range diffSizes() {
		xs := cornerFloats(r, n)
		m := FromNonzero(xs)
		nnz := m.PopCount()
		for _, aligned := range []bool{false, true} {
			// Gather across a split partition must equal the scalar gather
			// over the whole range.
			want := make([]float32, nnz)
			m.gatherNonzeroScalar(xs, 0, n, want)
			got := make([]float32, nnz)
			pts := splitPoints(r, n, aligned)
			off := 0
			for i := 0; i+1 < len(pts); i++ {
				off += m.GatherNonzero(xs, pts[i], pts[i+1], got[off:])
			}
			if off != nnz {
				t.Fatalf("n=%d aligned=%v: gathered %d values, want %d", n, aligned, off, nnz)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d aligned=%v: gathered[%d] = %#08x, want %#08x",
						n, aligned, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			// Scatter back across the same partition must equal the scalar
			// scatter; -0.0 inputs decode as +0.0 (their mask bit is clear).
			wantDst := make([]float32, n)
			m.scatterNonzeroScalar(wantDst, 0, n, want)
			gotDst := make([]float32, n)
			for i := range gotDst {
				gotDst[i] = 99 // stale values must be overwritten
			}
			off = 0
			for i := 0; i+1 < len(pts); i++ {
				off += m.ScatterNonzero(gotDst[pts[i]:], pts[i], pts[i+1], got[off:])
			}
			if off != nnz {
				t.Fatalf("n=%d aligned=%v: scattered %d values, want %d", n, aligned, off, nnz)
			}
			for i := range wantDst {
				if math.Float32bits(gotDst[i]) != math.Float32bits(wantDst[i]) {
					t.Fatalf("n=%d aligned=%v: dst[%d] = %#08x, want %#08x",
						n, aligned, i, math.Float32bits(gotDst[i]), math.Float32bits(wantDst[i]))
				}
			}
		}
	}
}

// TestDiffNonzeroBitExhaustiveExponents sweeps every float32 exponent with
// boundary mantissas through the branch-free predicate: at threshold 1
// against v != 0 — the full classification table of the nonzero test (NaN
// is nonzero, -0 is zero) — and at every threshold of the sweep against
// the plain magnitude compare.
func TestDiffNonzeroBitExhaustiveExponents(t *testing.T) {
	var pats []uint32
	for sign := uint32(0); sign <= 1; sign++ {
		for exp := uint32(0); exp <= 0xff; exp++ {
			for _, man := range []uint32{0, 1, 0x400000, 0x7fffff} {
				pats = append(pats, sign<<31|exp<<23|man)
			}
		}
	}
	for _, b := range pats {
		v := math.Float32frombits(b)
		want := uint64(0)
		if v != 0 || v != v { // nonzero or NaN
			want = 1
		}
		if got := atLeastBit(b, 1); got != want {
			t.Fatalf("atLeastBit(%#08x, 1) = %d, want %d (v=%g)", b, got, want, v)
		}
		for _, min := range pats {
			min &= 0x7fffffff
			if min == 0 {
				continue
			}
			want := uint64(0)
			if b&0x7fffffff >= min {
				want = 1
			}
			if got := atLeastBit(b, min); got != want {
				t.Fatalf("atLeastBit(%#08x, %#08x) = %d, want %d", b, min, got, want)
			}
		}
	}
}

// TestDiffGatherScatterUniformWords drives the all-zero and all-one word
// fast paths (skip/copy on gather, clear/copy on scatter), with tails.
func TestDiffGatherScatterUniformWords(t *testing.T) {
	for _, n := range []int{64, 65, 127, 128, 129, 833} {
		for _, set := range []bool{false, true} {
			m := NewBitMask(n)
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = float32(i + 1)
			}
			if set {
				for i := 0; i < n; i++ {
					m.Set(i, true)
				}
			}
			nnz := m.PopCount()
			want := make([]float32, nnz)
			m.gatherNonzeroScalar(xs, 0, n, want)
			got := make([]float32, nnz)
			if k := m.GatherNonzero(xs, 0, n, got); k != nnz {
				t.Fatalf("n=%d set=%v: gathered %d, want %d", n, set, k, nnz)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d set=%v: gathered[%d] = %v, want %v", n, set, i, got[i], want[i])
				}
			}
			wantDst := make([]float32, n)
			m.scatterNonzeroScalar(wantDst, 0, n, want)
			gotDst := make([]float32, n)
			for i := range gotDst {
				gotDst[i] = 99
			}
			m.ScatterNonzero(gotDst, 0, n, got)
			for i := range wantDst {
				if gotDst[i] != wantDst[i] {
					t.Fatalf("n=%d set=%v: dst[%d] = %v, want %v", n, set, i, gotDst[i], wantDst[i])
				}
			}
		}
	}
}
