package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gist/internal/parallel"
)

// Differential tests: the popcount-driven gather kernels against the
// retained scalar references, over every length 0..130, lane and chunk
// boundary sizes, column widths from 1 to 256, sparsity extremes, and
// inputs containing the values where "non-zero" is subtle (-0 is zero, NaN
// is not).

func diffSizes() []int {
	sizes := make([]int, 0, 160)
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 191, 192, 193, 255, 256, 257,
		767, 768, 769, 831, 832, 833, 1535, 1536, 1537, 100003)
}

// diffInput mixes zeros and values at the given density, seasoning with
// the predicate corner cases: negative zero (a zero), NaN and denormals
// (non-zeros).
func diffInput(n int, density float64, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	corners := []float32{
		float32(math.Copysign(0, -1)), // zero in disguise
		float32(math.NaN()),
		math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32,
		float32(math.Inf(1)),
		math.MaxFloat32,
	}
	xs := make([]float32, n)
	for i := range xs {
		if r.Float64() >= density {
			continue
		}
		if r.Intn(8) == 0 {
			xs[i] = corners[r.Intn(len(corners))]
		} else {
			xs[i] = float32(r.NormFloat64())
		}
	}
	return xs
}

func sameCSR(t *testing.T, tag string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.N != want.N {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)",
			tag, got.Rows, got.Cols, got.N, want.Rows, want.Cols, want.N)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) ||
		len(got.Values) != len(want.Values) {
		t.Fatalf("%s: lengths (%d,%d,%d) != (%d,%d,%d)", tag,
			len(got.RowPtr), len(got.ColIdx), len(got.Values),
			len(want.RowPtr), len(want.ColIdx), len(want.Values))
	}
	for r := range got.RowPtr {
		if got.RowPtr[r] != want.RowPtr[r] {
			t.Fatalf("%s: RowPtr[%d] = %d, scalar %d", tag, r, got.RowPtr[r], want.RowPtr[r])
		}
	}
	for k := range got.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, scalar %d", tag, k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float32bits(got.Values[k]) != math.Float32bits(want.Values[k]) {
			t.Fatalf("%s: Values[%d] = %#08x, scalar %#08x", tag, k,
				math.Float32bits(got.Values[k]), math.Float32bits(want.Values[k]))
		}
	}
}

// TestDiffEncodeCSR compares the gather-based encoder with the scalar
// append encoder across sizes, densities and column widths.
func TestDiffEncodeCSR(t *testing.T) {
	densities := []float64{0, 0.1, 0.5, 0.9, 1}
	colsList := []int{1, 3, 64, 65, 100, 256}
	for _, n := range diffSizes() {
		if n > 4096 && testing.Short() {
			continue
		}
		for di, density := range densities {
			xs := diffInput(n, density, int64(n*10+di))
			for _, cols := range colsList {
				if n > 4096 && cols != NarrowCols {
					continue // big sizes only need the production width
				}
				got := EncodeCSRCols(xs, cols)
				want := encodeCSRColsScalar(xs, cols)
				sameCSR(t, "EncodeCSRCols", got, want)
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d cols=%d: %v", n, cols, err)
				}
			}

			// The pooled in-place encoder, including reuse of dirty arrays
			// from a previous larger encode.
			var c CSR
			EncodeCSRInto(&c, diffInput(n+512, 0.8, 1))
			EncodeCSRInto(&c, xs)
			sameCSR(t, "EncodeCSRInto", &c, encodeCSRColsScalar(xs, NarrowCols))
		}
	}
}

// TestDiffCountFillDecodeRows exercises the chunk-range kernels on disjoint
// row ranges exactly as the parallel builder drives them.
func TestDiffCountFillDecodeRows(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 255, 256, 257, 768, 100003} {
		xs := diffInput(n, 0.5, int64(n)+3)
		want := encodeCSRColsScalar(xs, NarrowCols)
		rows := want.Rows

		for _, nchunks := range []int{1, 2, 3} {
			if rows == 0 && nchunks > 1 {
				continue
			}
			// Counts per chunk of rows.
			counts := make([]int32, rows)
			countsRef := make([]int32, rows)
			per := (rows + nchunks - 1) / max(nchunks, 1)
			for r0 := 0; r0 < rows; r0 += per {
				r1 := min(r0+per, rows)
				CountRowNNZ(xs, NarrowCols, r0, r1, counts[r0:r1])
				countRowNNZScalar(xs, NarrowCols, r0, r1, countsRef[r0:r1])
			}
			for r := range counts {
				if counts[r] != countsRef[r] {
					t.Fatalf("n=%d chunks=%d: counts[%d] = %d, scalar %d",
						n, nchunks, r, counts[r], countsRef[r])
				}
			}

			// Fill into a container shaped by the reference row pointers.
			got := &CSR{Rows: rows, Cols: NarrowCols, N: n,
				RowPtr: want.RowPtr,
				ColIdx: make([]uint8, want.NNZ()),
				Values: make([]float32, want.NNZ())}
			for r0 := 0; r0 < rows; r0 += per {
				got.FillRows(xs, r0, min(r0+per, rows))
			}
			sameCSR(t, "FillRows", got, want)

			// Decode back, word kernel vs scalar scatter, against the input.
			dst := make([]float32, n)
			ref := make([]float32, n)
			for r0 := 0; r0 < rows; r0 += per {
				got.DecodeRows(dst, r0, min(r0+per, rows))
				want.decodeRowsScalar(ref, r0, min(r0+per, rows))
			}
			for i := range dst {
				if math.Float32bits(dst[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("n=%d: decode[%d] = %#08x, scalar %#08x",
						n, i, math.Float32bits(dst[i]), math.Float32bits(ref[i]))
				}
				// -0 encodes as a dropped zero, so decode gives +0; all
				// other values round-trip bitwise.
				wantBits := math.Float32bits(xs[i])
				if wantBits == 0x80000000 {
					wantBits = 0
				}
				if math.Float32bits(dst[i]) != wantBits {
					t.Fatalf("n=%d: round-trip[%d] = %#08x, want %#08x",
						n, i, math.Float32bits(dst[i]), wantBits)
				}
			}
		}
	}
}

// TestDiffNonzeroBitExhaustive checks the branch-free predicate against
// v != 0 for every exponent/sign with boundary mantissas, plus full-random
// patterns.
func TestDiffNonzeroBitExhaustive(t *testing.T) {
	check := func(b uint32) {
		v := math.Float32frombits(b)
		want := uint64(0)
		if v != 0 {
			want = 1
		}
		if got := nonzeroBit(v); got != want {
			t.Fatalf("nonzeroBit(%#08x) = %d, want %d", b, got, want)
		}
	}
	for sign := uint32(0); sign <= 1; sign++ {
		for e := uint32(0); e <= 0xff; e++ {
			for _, man := range []uint32{0, 1, 0x400000, 0x7fffff} {
				check(sign<<31 | e<<23 | man)
			}
		}
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint32())
	}
}

// TestEncodeCSRIntoAmortisedGrowth feeds the in-place encoders 200 inputs
// whose non-zero count rises by about half a percent each — ReLU sparsity
// drifting across training steps — into one persistent container. Growing
// ColIdx/Values to exactly nnz re-allocated both on every step (~400
// mallocs); with a quarter of slack a handful of regrowths cover the whole
// climb, and the output still equals a fresh EncodeCSR every time.
func TestEncodeCSRIntoAmortisedGrowth(t *testing.T) {
	const n, steps = 16384, 200
	inputs := make([][]float32, steps)
	wants := make([]*CSR, steps)
	nnz := 4000.0
	for i := range inputs {
		xs := make([]float32, n)
		for j := 0; j < int(nnz); j++ {
			xs[(j*7919)%n] = float32(j + 1) // 7919 is coprime to n: distinct slots
		}
		inputs[i], wants[i] = xs, EncodeCSR(xs)
		nnz *= 1.005
	}
	if first, last := wants[0].NNZ(), wants[steps-1].NNZ(); last < 2*first || last > n {
		t.Fatalf("nnz climbed %d -> %d, want a climb past 2x inside the buffer", first, last)
	}

	var c CSR
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, xs := range inputs {
		EncodeCSRInto(&c, xs)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 20 {
		t.Fatalf("%d allocations over %d growing encodes, want <= 20", mallocs, steps)
	}

	pool := parallel.NewPool(2)
	for name, into := range map[string]func(*CSR, []float32){
		"serial":  EncodeCSRInto,
		"chunked": func(c *CSR, xs []float32) { EncodeCSRChunkedInto(c, xs, pool, 8) },
	} {
		var c CSR
		regrowths := 0
		for i, xs := range inputs {
			was := cap(c.Values)
			into(&c, xs)
			if cap(c.Values) != was {
				regrowths++
			}
			sameCSR(t, name, &c, wants[i])
			if c.Bytes() != wants[i].Bytes() {
				t.Fatalf("%s step %d: Bytes() = %d, EncodeCSR %d", name, i, c.Bytes(), wants[i].Bytes())
			}
			if cap(c.Values) > n || cap(c.ColIdx) > n {
				t.Fatalf("%s step %d: capacity %d/%d past the dense size %d", name, i, cap(c.ColIdx), cap(c.Values), n)
			}
		}
		if regrowths > 8 {
			t.Fatalf("%s: %d regrowths over %d growing encodes, want <= 8", name, regrowths, steps)
		}
	}
}
