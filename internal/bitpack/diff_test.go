package bitpack

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests: the word-parallel kernels must produce output
// byte-identical to the retained scalar references for every size that
// stresses the word machinery — exhaustive 0..130 (crossing the first two
// word boundaries), every ragged tail around the 768-element chunk
// alignment, and randomized large tensors — over inputs that include the
// floating-point corners (±0, NaN, ±Inf, denormals) the branch-free
// predicate must classify exactly like the scalar compare.

// diffSizes is the size sweep every differential test runs: exhaustive
// small sizes plus the chunk-boundary tails and a large non-round size.
func diffSizes() []int {
	var sizes []int
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 191, 192, 193, 255, 256, 257,
		767, 768, 769, 831, 832, 833, 1535, 1536, 1537, 100003)
	return sizes
}

// cornerFloats mixes regular values with the IEEE corners at a fixed seed.
func cornerFloats(r *rand.Rand, n int) []float32 {
	corners := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1e-40, -1e-40,
	}
	xs := make([]float32, n)
	for i := range xs {
		switch r.Intn(4) {
		case 0:
			xs[i] = corners[r.Intn(len(corners))]
		case 1:
			xs[i] = 0
		default:
			xs[i] = float32(r.NormFloat64())
		}
	}
	return xs
}

// splitPoints returns a random partition of [0, n) into ranges, sometimes
// word-aligned (the parallel-chunk contract), sometimes ragged (the serial
// sweep contract).
func splitPoints(r *rand.Rand, n int, aligned bool) []int {
	pts := []int{0}
	for p := 0; p < n; {
		step := 1 + r.Intn(97)
		if aligned {
			step = (1 + r.Intn(3)) * 64
		}
		p += step
		if p > n {
			p = n
		}
		pts = append(pts, p)
	}
	if pts[len(pts)-1] != n {
		pts = append(pts, n)
	}
	return pts
}

func TestDiffFillPositiveRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range diffSizes() {
		xs := cornerFloats(r, n)
		for _, aligned := range []bool{false, true} {
			want := NewBitMask(n)
			want.fillPositiveRangeScalar(xs, 0, n)
			got := NewBitMask(n)
			pts := splitPoints(r, n, aligned)
			for i := 0; i+1 < len(pts); i++ {
				got.FillPositiveRange(xs[pts[i]:], pts[i], pts[i+1])
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

func TestDiffExpandRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range diffSizes() {
		m := FromPositive(cornerFloats(r, n))
		want := make([]float32, n)
		m.expandRangeScalar(want, 0, n)
		got := make([]float32, n)
		for i := range got {
			got[i] = 99 // stale values must be overwritten
		}
		pts := splitPoints(r, n, false)
		for i := 0; i+1 < len(pts); i++ {
			m.ExpandRange(got[pts[i]:], pts[i], pts[i+1])
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %#08x, want %#08x",
					n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestDiffApplyGate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range diffSizes() {
		m := FromPositive(cornerFloats(r, n))
		dy := cornerFloats(r, n)
		want := make([]float32, n)
		m.applyGateScalar(want, dy)
		got := make([]float32, n)
		for i := range got {
			got[i] = 99
		}
		m.ApplyGate(got, dy)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: dx[%d] = %#08x, want %#08x (dy=%#08x)",
					n, i, math.Float32bits(got[i]), math.Float32bits(want[i]),
					math.Float32bits(dy[i]))
			}
		}
	}
}

// TestDiffApplyGateUniformWords drives the all-zero and all-one word fast
// paths explicitly (clear / copy), including their tails.
func TestDiffApplyGateUniformWords(t *testing.T) {
	for _, n := range []int{64, 65, 127, 128, 129, 833} {
		for _, set := range []bool{false, true} {
			m := NewBitMask(n)
			if set {
				for i := 0; i < n; i++ {
					m.Set(i, true)
				}
			}
			dy := cornerFloats(rand.New(rand.NewSource(int64(n))), n)
			want := make([]float32, n)
			m.applyGateScalar(want, dy)
			got := make([]float32, n)
			m.ApplyGate(got, dy)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d set=%v: dx[%d] = %#08x, want %#08x",
						n, set, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

func TestDiffPopCount(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range diffSizes() {
		m := FromPositive(cornerFloats(r, n))
		if got, want := m.PopCount(), m.popCountScalar(); got != want {
			t.Fatalf("n=%d: PopCount = %d, want %d", n, got, want)
		}
	}
}

// TestDiffPositiveBitExhaustiveExponents sweeps every float32 exponent with
// boundary mantissas through the branch-free predicate against v > 0 —
// the full classification table of PositiveMask and its one-bit form.
func TestDiffPositiveBitExhaustiveExponents(t *testing.T) {
	for sign := uint32(0); sign <= 1; sign++ {
		for exp := uint32(0); exp <= 0xff; exp++ {
			for _, man := range []uint32{0, 1, 2, 0x400000, 0x7ffffe, 0x7fffff} {
				b := sign<<31 | exp<<23 | man
				v := math.Float32frombits(b)
				want := uint32(0)
				if v > 0 {
					want = ^uint32(0)
				}
				if got := PositiveMask(b); got != want {
					t.Fatalf("PositiveMask(%#08x) = %#08x, want %#08x (v=%g)", b, got, want, v)
				}
				if got := positiveBit(v); got != uint64(want&1) {
					t.Fatalf("positiveBit(%#08x) = %d, want %d (v=%g)", b, got, want&1, v)
				}
			}
		}
	}
}
