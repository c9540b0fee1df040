package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// The packed sparse encoder against its two-pass reference. ZVC quantizes,
// tests for zero and packs in the passes that compact the map; the
// reference is the pipeline it replaced, spelled out in plain loops:
// quantize a full FP32 copy of the map, take its nonzeros (the mask), and
// keep their values at FP32.

// allFormats are the DPR formats, FP32 included.
var allFormats = []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP10, floatenc.FP8}

// sparseRef is the reference encoding of one map at one format.
type sparseRef struct {
	mask   []uint64  // bit i set iff the quantized element i is nonzero
	values []float32 // the quantized nonzeros in index order
	raw    []float32 // the same elements as the map holds them
	dense  []float32 // what a decode returns: the quantized map, -0 as +0
}

func refSparse(f floatenc.Format, xs []float32) sparseRef {
	q := floatenc.QuantizeSlice(f, append([]float32(nil), xs...))
	r := sparseRef{mask: make([]uint64, (len(q)+63)/64), dense: make([]float32, len(q))}
	for i, v := range q {
		if v != 0 {
			r.mask[i/64] |= 1 << (i % 64)
			r.values = append(r.values, v)
			r.raw = append(r.raw, xs[i])
			r.dense[i] = v
		}
	}
	return r
}

// checkPackedSparse encodes xs with ZVC at every format, chunk
// size (768 and 1536 elements) and worker count (1, 2, 4), and compares
// each stash with the reference: the cost guard's verdict, the zero
// structure, value words equal to a serial DPR pack of the selected
// elements, held bytes equal to the structure plus the packed values, a
// bit-identical decode, and a sealed blob identical at every worker count.
// The words pack the elements as the map holds them, not their quantized
// values: a negative NaN keeps its sign in the packed pattern, while
// Quantize returns the one canonical NaN, so a pack of the quantized values
// differs there — and both decode to that canonical NaN.
func checkPackedSparse(t *testing.T, xs []float32) {
	t.Helper()
	x := tensor.New(len(xs))
	copy(x.Data, xs)
	for _, f := range allFormats {
		ref := refSparse(f, xs)
		packed := floatenc.EncodeSlice(f, ref.raw)
		held := int64(len(ref.mask))*8 + f.PackedBytes(len(ref.values))
		tooLarge := held >= f.PackedBytes(len(xs))
		for _, ce := range []int{768, 1536} {
			var blob1 []byte
			for _, w := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%v n=%d ce=%d workers=%d", f, len(xs), ce, w)
				c := Codec{Pool: parallel.NewPool(w), ChunkElems: ce}
				e, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: f}, x)
				if got := errors.Is(err, ErrStashTooLarge); got != tooLarge || (err != nil && !got) {
					t.Fatalf("%s: encode error %v, reference holds %d B against %d dense", tag, err, held, f.PackedBytes(len(xs)))
				}
				if tooLarge {
					continue
				}
				if !slicesEqual(e.ZVC.Mask.Words(), ref.mask) {
					t.Fatalf("%s: mask differs from the reference", tag)
				}
				samePacked(t, tag, &e.ZVC.Values, packed)
				if e.Bytes() != held {
					t.Fatalf("%s: holds %d B, structure plus packed values %d B", tag, e.Bytes(), held)
				}
				out, err := decodeFresh(c, e)
				if err != nil {
					t.Fatalf("%s: decode: %v", tag, err)
				}
				for i, v := range out.Data {
					if math.Float32bits(v) != math.Float32bits(ref.dense[i]) {
						t.Fatalf("%s: decode[%d] = %#08x, reference %#08x", tag, i, math.Float32bits(v), math.Float32bits(ref.dense[i]))
					}
				}
				c.Seal(e)
				blob, err := e.MarshalBinary()
				if err != nil {
					t.Fatalf("%s: marshal: %v", tag, err)
				}
				if blob1 == nil {
					blob1 = blob
				} else if !bytes.Equal(blob, blob1) {
					t.Fatalf("%s: sealed blob differs from the one-worker blob", tag)
				}
			}
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// residueMap builds a map of chunks 768-element chunks whose chunk c holds
// 12(c+1)+1 nonzeros: the value offset of chunk c (its first slot) is then
// c mod 12, so chunk offsets land on every residue mod 2, 3 and 4 — the
// values per word of FP16, FP10 and FP8 — at a 768-element chunk size.
func residueMap(chunks int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float32, chunks*chunkAlign)
	for c := 0; c < chunks; c++ {
		for _, i := range r.Perm(chunkAlign)[:12*(c+1)+1] {
			xs[c*chunkAlign+i] = float32(r.NormFloat64()) + 4 // no format flushes it
		}
	}
	return xs
}

// reluMap is a ReLU-shaped map at the given density with tiny values mixed
// in: a fifth of the nonzeros lie below FP8's smallest normal (which
// flushes them) and some below FP16's (which flushes those too).
func reluMap(n int, density float64, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float32, n)
	for i := range xs {
		if r.Float64() >= density {
			continue
		}
		v := float32(math.Abs(r.NormFloat64()))
		switch r.Intn(10) {
		case 0:
			v *= 1e-3 // below FP8's 2^-6, above FP16's 2^-14
		case 1:
			v *= 1e-6 // below every reduced format's smallest normal
		}
		xs[i] = v
	}
	return xs
}

// FuzzPackedSparseDiff drives checkPackedSparse with fuzzer-chosen maps: a
// ReLU-shaped map of n elements at a density out of 256, whose leading
// elements are overwritten by raw float32 bit patterns from data (NaNs,
// negative zeros, denormals and clamping magnitudes included). The residue
// maps of TestPackedSparseDiffResidues put chunk value offsets on every
// residue mod the values per word; the corpus in testdata keeps a negative
// NaN, on which a pack of the quantized values would differ.
func FuzzPackedSparseDiff(f *testing.F) {
	f.Add(uint16(3*768+5), uint8(128), int64(1), []byte{})
	f.Add(uint16(1), uint8(255), int64(2), []byte{0, 0, 0x80, 0x7f})
	f.Add(uint16(300), uint8(40), int64(3), []byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Add(uint16(0), uint8(0), int64(4), []byte{})
	f.Fuzz(func(t *testing.T, n uint16, density uint8, seed int64, data []byte) {
		if n > 4*chunkAlign {
			n %= 4 * chunkAlign
		}
		xs := reluMap(int(n), float64(density)/256, seed)
		for i := 0; i < len(xs) && 4*i+4 <= len(data); i++ {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkPackedSparse(t, xs)
	})
}

// TestPackedSparseDiffResidues runs the differential check on maps whose
// chunks start at every value slot residue, and on ReLU-shaped maps with
// values the reduced formats flush to zero.
func TestPackedSparseDiffResidues(t *testing.T) {
	checkPackedSparse(t, residueMap(13, 1))
	checkPackedSparse(t, residueMap(5, 2)[:4*chunkAlign-7]) // a ragged last chunk
	for _, n := range []int{1, 255, 256, 257, 2*chunkAlign + 100} {
		checkPackedSparse(t, reluMap(n, 0.4, int64(n)))
	}
}

// TestHeldEqualsPriced checks that ZVC holds what the planner and the cost
// guard charge: on ReLU-shaped maps at every format, including maps with
// values FP8 (and FP16) flushes to zero, the held bytes equal the mask plus
// Format.PackedBytes(nnz), and equal PlanBytes at the map's measured
// sparsity after quantization. SSDC's exact size, which the ratio
// experiment prints, equals its planning model there too.
func TestHeldEqualsPriced(t *testing.T) {
	var c Codec
	for _, n := range []int{768, 4096, 10000} {
		for _, density := range []float64{0.1, 0.3, 0.5} {
			xs := reluMap(n, density, int64(n)+int64(100*density))
			x := tensor.New(n)
			copy(x.Data, xs)
			for _, f := range allFormats {
				ref := refSparse(f, xs)
				nnz := len(ref.values)
				sparsity := 1 - float64(nnz)/float64(n)
				tag := fmt.Sprintf("%v n=%d density=%v", f, n, density)
				e, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: f}, x)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if want := e.ZVC.Mask.Bytes() + f.PackedBytes(nnz); e.Bytes() != want {
					t.Errorf("%s: holds %d B, mask %d + packed %d values = %d", tag, e.Bytes(), e.ZVC.Mask.Bytes(), nnz, want)
				}
				if plan := PlanBytes(ZVC, n, sparsity, f); e.Bytes() != plan {
					t.Errorf("%s: holds %d B, the planner charges %d at sparsity %v", tag, e.Bytes(), plan, sparsity)
				}
				if exact, plan := SSDCBytes(n, nnz, f), PlanBytes(SSDC, n, sparsity, f); exact != plan {
					t.Errorf("%s: SSDC is %d B exactly, the planner charges %d at sparsity %v", tag, exact, plan, sparsity)
				}
			}
		}
	}
}
