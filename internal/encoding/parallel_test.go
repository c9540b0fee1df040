package encoding

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// randStash fills a length-n buffer with the mixed-sign, partly-zero data
// the codecs see in training: zero with probability sparsity, otherwise a
// uniform value in (-1, 1) (sign exercises Binarize, zeros exercise ZVC).
func randStash(rng *tensor.RNG, n int, sparsity float64) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		if rng.Float64() >= sparsity {
			xs[i] = rng.Float32()*2 - 1
			if xs[i] == 0 {
				xs[i] = 0.5
			}
		}
	}
	return xs
}

// encodeFresh, adaptiveFresh and decodeFresh run one codec operation into a
// fresh container or tensor, the one-shot shape most tests want.
func encodeFresh(c Codec, as *Assignment, x *tensor.Tensor) (*EncodedStash, error) {
	e := &EncodedStash{}
	return e, c.EncodeStashInto(e, as, x)
}

func adaptiveFresh(c Codec, as *Assignment, x *tensor.Tensor) (*EncodedStash, bool, error) {
	e := &EncodedStash{}
	fellBack, err := c.EncodeStashAdaptiveInto(e, as, x)
	return e, fellBack, err
}

func decodeFresh(c Codec, e *EncodedStash) (*tensor.Tensor, error) {
	out := tensor.New(e.Shape...)
	return out, c.DecodeInto(out, e)
}

// propAssignments are the technique/format combinations the property tests
// sweep: every codec, including DPR layered on ZVC.
func propAssignments() []*Assignment {
	return []*Assignment{
		{Tech: Binarize, Format: floatenc.FP32},
		{Tech: DPR, Format: floatenc.FP16},
		{Tech: DPR, Format: floatenc.FP10},
		{Tech: DPR, Format: floatenc.FP8},
		{Tech: ZVC, Format: floatenc.FP32},
		{Tech: ZVC, Format: floatenc.FP16},
	}
}

// propWorkers returns the deduplicated worker counts to sweep: 1 (serial)
// through 2x GOMAXPROCS (oversubscribed).
func propWorkers() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	seen := map[int]bool{}
	var ws []int
	for _, w := range []int{1, 2, 3, maxProcs, 2 * maxProcs} {
		if w >= 1 && !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

// propSizes covers the chunk-boundary edge cases relative to the 768-element
// alignment and the test chunk sizes: below/at/above word (64), row (256)
// and alignment (768) boundaries, exact chunk multiples (zero remainder) and
// off-by-one neighbours.
var propSizes = []int{1, 7, 63, 64, 65, 255, 256, 257, 767, 768, 769, 1535, 1536, 1537, 4096, 10000}

// propChunkElems sweeps chunk sizes: one alignment group, two, a value that
// is not a multiple of 768 (rounded up by the codec), and the default.
var propChunkElems = []int{768, 1536, 1000, 0}

// assertStashesIdentical requires two encoded stashes to agree byte for
// byte: payload arrays, chunk layout, checksum and chunk CRCs.
func assertStashesIdentical(t *testing.T, want, got *EncodedStash, label string) {
	t.Helper()
	if want.Tech != got.Tech || !want.Shape.Equal(got.Shape) {
		t.Fatalf("%s: tech/shape %v %v, want %v %v", label, got.Tech, got.Shape, want.Tech, want.Shape)
	}
	switch want.Tech {
	case Binarize:
		if want.Mask.Len() != got.Mask.Len() {
			t.Fatalf("%s: mask %d bits, want %d", label, got.Mask.Len(), want.Mask.Len())
		}
		for i, w := range want.Mask.Words() {
			if got.Mask.Words()[i] != w {
				t.Fatalf("%s: mask word %d = %#x, want %#x", label, i, got.Mask.Words()[i], w)
			}
		}
	case DPR:
		samePacked(t, label, got.Packed, want.Packed)
	case ZVC:
		if want.ZVC.Mask.Len() != got.ZVC.Mask.Len() {
			t.Fatalf("%s: zvc mask %d bits, want %d", label, got.ZVC.Mask.Len(), want.ZVC.Mask.Len())
		}
		for i, w := range want.ZVC.Mask.Words() {
			if got.ZVC.Mask.Words()[i] != w {
				t.Fatalf("%s: zvc mask word %d = %#x, want %#x", label, i, got.ZVC.Mask.Words()[i], w)
			}
		}
		samePacked(t, label+": zvc values", &got.ZVC.Values, &want.ZVC.Values)
	}
	if want.ChunkElems != got.ChunkElems {
		t.Fatalf("%s: chunk size %d, want %d", label, got.ChunkElems, want.ChunkElems)
	}
	if want.Checksum != got.Checksum {
		t.Fatalf("%s: checksum %#x, want %#x", label, got.Checksum, want.Checksum)
	}
	if len(want.ChunkCRCs) != len(got.ChunkCRCs) {
		t.Fatalf("%s: %d chunk CRCs, want %d", label, len(got.ChunkCRCs), len(want.ChunkCRCs))
	}
	for i, c := range want.ChunkCRCs {
		if got.ChunkCRCs[i] != c {
			t.Fatalf("%s: chunk CRC %d = %#x, want %#x", label, i, got.ChunkCRCs[i], c)
		}
	}
}

// TestParallelEncodeMatchesSerialByteForByte is the central determinism
// property: for random shapes and sparsities, every worker count and chunk
// size produces a sealed stash identical to the serial one, the rolled-up
// checksum equals the serial whole-payload oracle, and decode round-trips
// exactly (bit-exact for Binarize/ZVC, equal to Format.Quantize for DPR).
func TestParallelEncodeMatchesSerialByteForByte(t *testing.T) {
	rng := tensor.NewRNG(42)
	workers := propWorkers()
	for _, n := range propSizes {
		in := randStash(rng, n, 0.75)
		tt := tensor.New(n)
		copy(tt.Data, in)
		for _, as := range propAssignments() {
			for _, ce := range propChunkElems {
				label := fmt.Sprintf("%v/%s n=%d ce=%d", as.Tech, as.Format, n, ce)
				serial := Codec{Pool: parallel.NewPool(1), ChunkElems: ce}
				se, sFell, err := adaptiveFresh(serial, as, tt)
				if err != nil {
					t.Fatalf("%s: serial encode: %v", label, err)
				}
				serial.Seal(se)
				sd, err := decodeFresh(serial, se)
				if err != nil {
					t.Fatalf("%s: serial decode: %v", label, err)
				}
				checkRoundTrip(t, as, se, in, sd.Data, label)
				for _, w := range workers {
					c := Codec{Pool: parallel.NewPool(w), ChunkElems: ce}
					pe, pFell, err := adaptiveFresh(c, as, tt)
					if err != nil {
						t.Fatalf("%s w=%d: encode: %v", label, w, err)
					}
					if pFell != sFell {
						t.Fatalf("%s w=%d: fallback %v, serial %v", label, w, pFell, sFell)
					}
					c.Seal(pe)
					assertStashesIdentical(t, se, pe, fmt.Sprintf("%s w=%d", label, w))
					if oracle := pe.checksum(); pe.Checksum != oracle {
						t.Fatalf("%s w=%d: rolled-up checksum %#x, serial oracle %#x", label, w, pe.Checksum, oracle)
					}
					pd, err := decodeFresh(c, pe)
					if err != nil {
						t.Fatalf("%s w=%d: decode: %v", label, w, err)
					}
					for i := range sd.Data {
						if math.Float32bits(pd.Data[i]) != math.Float32bits(sd.Data[i]) {
							t.Fatalf("%s w=%d: decoded[%d] = %v, serial %v", label, w, i, pd.Data[i], sd.Data[i])
						}
					}
				}
			}
		}
	}
}

// checkRoundTrip pins decode semantics against the original input: Binarize
// reconstructs the positivity indicator; ZVC is exact (bit-exact at FP32,
// value-quantized when DPR is layered on); and DPR
// equals Format.Quantize elementwise — Quantize is Decode∘Encode, so this
// is an equality, with the format's MaxRelativeError bound double-checked
// on top.
func checkRoundTrip(t *testing.T, as *Assignment, enc *EncodedStash, in, got []float32, label string) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("%s: decoded %d elements, want %d", label, len(got), len(in))
	}
	for i, v := range in {
		var want float32
		switch {
		case as.Tech == Binarize:
			if v > 0 {
				want = 1
			}
		default:
			// ZVC stashes quantize their value array at the assignment
			// format (identity at FP32); dense DPR (and the ZVC fallback,
			// which re-encodes densely) quantizes every element.
			want = as.Format.Quantize(v)
		}
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("%s: round-trip[%d] = %v, want %v (in %v)", label, i, got[i], want, v)
		}
		// MaxRelativeError bounds rounding only inside the format's normal
		// range; values the format flushes to zero (narrow FP8/FP10
		// exponents) are excluded, their exactness already pinned above.
		if as.Tech != Binarize && v != 0 && want != 0 {
			rel := math.Abs(float64(got[i]-v)) / math.Abs(float64(v))
			if rel > as.Format.MaxRelativeError() {
				t.Fatalf("%s: round-trip[%d] relative error %g exceeds %g", label, i, rel, as.Format.MaxRelativeError())
			}
		}
	}
}

// TestChunkErrorLocalizesEveryPayloadBit sweeps payload bits across every
// segment of a multi-chunk stash: flipping bit i must make Verify report
// exactly the chunk ChunkOfBit(i), and restoring it must verify clean
// again. A sparse two-chunk stash is swept exhaustively — every bit of
// every segment, padding included, for every technique but dense DPR — and
// a six-chunk one at seven probes.
func TestChunkErrorLocalizesEveryPayloadBit(t *testing.T) {
	rng := tensor.NewRNG(7)
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	type stash struct {
		as       *Assignment
		n        int
		sparsity float64
	}
	var stashes []stash
	for _, as := range propAssignments() {
		// 6 chunks of 768; then one chunk and a 32-element tail, sparse
		// enough that its few thousand payload bits can be flipped one by one.
		stashes = append(stashes, stash{as, 4096, 0.8}, stash{as, 800, 0.95})
	}
	for _, st := range stashes {
		as, n := st.as, st.n
		tt := tensor.New(n)
		copy(tt.Data, randStash(rng, n, st.sparsity))
		enc, _, err := adaptiveFresh(c, as, tt)
		if err != nil {
			t.Fatalf("%v/%s: encode: %v", as.Tech, as.Format, err)
		}
		c.Seal(enc)
		if nc := enc.NumChunks(); nc < 2 {
			t.Fatalf("%v/%s: %d chunks, want multi-chunk", as.Tech, as.Format, nc)
		}
		bits := enc.PayloadBits()
		// Probe first/last bits plus a spread through the middle, which for
		// ZVC crosses the mask/values segment boundary.
		probes := []int{0, 1, bits / 3, bits / 2, 2 * bits / 3, bits - 2, bits - 1}
		if n == 800 && bits > 4000 && as.Tech != DPR {
			t.Fatalf("%v/%s: %d payload bits, too many for the exhaustive sweep", as.Tech, as.Format, bits)
		}
		if bits <= 4000 {
			probes = probes[:0]
			for bit := 0; bit < bits; bit++ {
				probes = append(probes, bit)
			}
		}
		for _, bit := range probes {
			enc.FlipBit(bit)
			err := c.Verify(enc)
			if err == nil {
				t.Fatalf("%v/%s: flip of bit %d undetected", as.Tech, as.Format, bit)
			}
			if !errors.Is(err, ErrCorruptStash) {
				t.Fatalf("%v/%s: flip error %v does not wrap ErrCorruptStash", as.Tech, as.Format, err)
			}
			chunk, ok := CorruptedChunk(err)
			if !ok {
				t.Fatalf("%v/%s: flip of bit %d produced no chunk localization: %v", as.Tech, as.Format, bit, err)
			}
			if want := enc.ChunkOfBit(bit); chunk != want {
				t.Fatalf("%v/%s: flip of bit %d attributed to chunk %d, want %d",
					as.Tech, as.Format, bit, chunk, want)
			}
			// White-box: exactly one chunk CRC moved.
			_, chunks, ok := c.chunkChecksums(enc)
			if !ok || len(chunks) != len(enc.ChunkCRCs) {
				t.Fatalf("%v/%s: chunk re-hash failed after flip of bit %d", as.Tech, as.Format, bit)
			}
			mismatches := 0
			for i := range chunks {
				if chunks[i] != enc.ChunkCRCs[i] {
					mismatches++
				}
			}
			if mismatches != 1 {
				t.Fatalf("%v/%s: flip of bit %d tripped %d chunks, want exactly 1",
					as.Tech, as.Format, bit, mismatches)
			}
			enc.FlipBit(bit)
			if err := c.Verify(enc); err != nil {
				t.Fatalf("%v/%s: restore of bit %d still fails: %v", as.Tech, as.Format, bit, err)
			}
		}
	}
}

// TestChunkOfBitRegression pins the payload-bit → chunk mapping on known
// layouts, so FlipBit and the chunked CRC layout can never silently drift
// apart (the bug class this PR's fix targets).
func TestChunkOfBitRegression(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}

	// Binarize, 2000 bits: chunks own elements [0,768), [768,1536),
	// [1536,2000); the last word's padding bits clamp into the final chunk.
	mask := tensor.New(2000)
	for i := range mask.Data {
		mask.Data[i] = 1
	}
	be, err := encodeFresh(c, &Assignment{Tech: Binarize}, mask)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ bit, chunk int }{
		{0, 0}, {767, 0}, {768, 1}, {1535, 1}, {1536, 2}, {1999, 2},
		{2000, 2},                 // padding bit of the last word
		{be.PayloadBits() - 1, 2}, // final padding bit
	} {
		if got := be.ChunkOfBit(tc.bit); got != tc.chunk {
			t.Errorf("Binarize bit %d → chunk %d, want %d", tc.bit, got, tc.chunk)
		}
	}

	// DPR FP10 packs 3 values per 32-bit word, so word w holds elements
	// [3w, 3w+3). Bit 32*256 starts word 256 = element 768 → chunk 1.
	dt := tensor.New(2000)
	de, err := encodeFresh(c, &Assignment{Tech: DPR, Format: floatenc.FP10}, dt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ bit, chunk int }{
		{0, 0}, {32*256 - 1, 0}, {32 * 256, 1}, {32*512 - 1, 1}, {32 * 512, 2},
		{de.PayloadBits() - 1, 2},
	} {
		if got := de.ChunkOfBit(tc.bit); got != tc.chunk {
			t.Errorf("DPR/FP10 bit %d → chunk %d, want %d", tc.bit, got, tc.chunk)
		}
	}

	// ZVC over 1600 elements, 3 chunks: mask word w holds elements
	// [64w, 64w+64), so word 12 starts chunk 1 and word 24 chunk 2; the
	// values split into proportional thirds.
	zt := tensor.New(1600)
	for i := range zt.Data {
		if i%4 == 0 { // 25% dense, well past break-even
			zt.Data[i] = 1
		}
	}
	ze, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP32}, zt)
	if err != nil {
		t.Fatal(err)
	}
	if ze.NumChunks() != 3 {
		t.Fatalf("ZVC layout: %d chunks, want 3", ze.NumChunks())
	}
	maskBits := len(ze.ZVC.Mask.Words()) * 64
	nnz := ze.ZVC.Values.N
	for _, tc := range []struct {
		name string
		bit  int
		want int
	}{
		{"mask[0]", 0, 0},
		{"mask[11]", 11*64 + 63, 0}, // elements 704-767 → chunk 0
		{"mask[12]", 12 * 64, 1},    // element 768 → chunk 1
		{"mask[24]", 24 * 64, 2},    // element 1536 → chunk 2
		{"Values[0]", maskBits, 0},
		{"Values[mid]", maskBits + (nnz/2)*32, spanOf(nnz/2, nnz, 3)},
		{"Values[last]", maskBits + nnz*32 - 1, 2},
	} {
		if got := ze.ChunkOfBit(tc.bit); got != tc.want {
			t.Errorf("ZVC %s (bit %d) → chunk %d, want %d", tc.name, tc.bit, got, tc.want)
		}
	}
}

// TestFlipBitAgreesWithPayloadBits re-pins the FlipBit/PayloadBits contract
// on chunked layouts: every payload bit is flippable, detected, and maps to
// a chunk within range.
func TestFlipBitAgreesWithPayloadBits(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	for _, as := range propAssignments() {
		tt := tensor.New(1600)
		copy(tt.Data, randStash(rng, 1600, 0.8))
		enc, _, err := adaptiveFresh(c, as, tt)
		if err != nil {
			t.Fatal(err)
		}
		c.Seal(enc)
		bits := enc.PayloadBits()
		nc := enc.NumChunks()
		stride := max(bits/97, 1) // sample ~100 bits across all segments
		for bit := 0; bit < bits; bit += stride {
			chunk := enc.ChunkOfBit(bit)
			if chunk < 0 || chunk >= nc {
				t.Fatalf("%v/%s: bit %d maps to chunk %d outside [0,%d)", as.Tech, as.Format, bit, chunk, nc)
			}
			enc.FlipBit(bit)
			if err := c.Verify(enc); err == nil {
				t.Fatalf("%v/%s: flip of bit %d undetected", as.Tech, as.Format, bit)
			}
			enc.FlipBit(bit)
		}
		if err := c.Verify(enc); err != nil {
			t.Fatalf("%v/%s: stash damaged by flip/restore sweep: %v", as.Tech, as.Format, err)
		}
		for _, bad := range []int{-1, bits} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v/%s: ChunkOfBit(%d) did not panic", as.Tech, as.Format, bad)
					}
				}()
				enc.ChunkOfBit(bad)
			}()
		}
	}
}

// TestDefaultCodecRouting checks DefaultCodec returns the codec
// SetDefaultCodec installed, and that stashes encoded under one codec verify
// under another (the layout travels with the stash).
func TestDefaultCodecRouting(t *testing.T) {
	defer SetDefaultCodec(Codec{})
	SetDefaultCodec(Codec{Pool: parallel.NewPool(2), ChunkElems: 768})
	c := DefaultCodec()
	tt := tensor.New(4096)
	for i := range tt.Data {
		tt.Data[i] = float32(i%3) - 1
	}
	enc, err := encodeFresh(c, &Assignment{Tech: Binarize}, tt)
	if err != nil {
		t.Fatal(err)
	}
	if enc.ChunkElems != 768 {
		t.Fatalf("stash chunk size %d, want the default codec's 768", enc.ChunkElems)
	}
	c.Seal(enc)
	if len(enc.ChunkCRCs) != 6 {
		t.Fatalf("%d chunk CRCs, want 6", len(enc.ChunkCRCs))
	}
	// A differently configured codec must still verify and decode it.
	other := Codec{Pool: parallel.NewPool(3), ChunkElems: 5000}
	if err := other.Verify(enc); err != nil {
		t.Fatalf("cross-codec verify: %v", err)
	}
	dec, err := decodeFresh(other, enc)
	if err != nil {
		t.Fatalf("cross-codec decode: %v", err)
	}
	for i := range tt.Data {
		want := float32(0)
		if tt.Data[i] > 0 {
			want = 1
		}
		if dec.Data[i] != want {
			t.Fatalf("decoded[%d] = %v, want %v", i, dec.Data[i], want)
		}
	}
}

// TestConcurrentCodecsOnSharedPool hammers the shared worker pool from many
// concurrent encode/seal/verify/decode pipelines — the -race workload for
// the codec layer.
func TestConcurrentCodecsOnSharedPool(t *testing.T) {
	parallel.SetSharedWorkers(4)
	defer parallel.SetSharedWorkers(0)
	c := Codec{ChunkElems: 768} // nil Pool → shared
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed + 1)
			for iter := 0; iter < 6; iter++ {
				as := propAssignments()[iter%len(propAssignments())]
				tt := tensor.New(3000 + int(seed))
				copy(tt.Data, randStash(rng, len(tt.Data), 0.8))
				enc, _, err := adaptiveFresh(c, as, tt)
				if err != nil {
					errs <- err
					return
				}
				c.Seal(enc)
				if enc.Checksum != enc.checksum() {
					errs <- fmt.Errorf("goroutine %d: checksum mismatch vs serial oracle", seed)
					return
				}
				if _, err := decodeFresh(c, enc); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestChunkErrorMessage keeps the error surface readable: the chunk error
// names the chunk, technique and shape.
func TestChunkErrorMessage(t *testing.T) {
	err := (&ChunkError{Chunk: 3, Chunks: 7, Tech: ZVC, Shape: tensor.Shape{4, 8}, Got: 1, Want: 2}).Error()
	for _, want := range []string{"chunk 3/7", "ZVC", "corrupt stash"} {
		if !strings.Contains(err, want) {
			t.Errorf("chunk error %q missing %q", err, want)
		}
	}
}

// samePacked requires two packed arrays to hold the same values in the same
// words.
func samePacked(t *testing.T, label string, got, want *floatenc.Packed) {
	t.Helper()
	if want.Format != got.Format || want.N != got.N || len(want.Words) != len(got.Words) {
		t.Fatalf("%s: packed %s/%d in %d words, want %s/%d in %d", label,
			got.Format, got.N, len(got.Words), want.Format, want.N, len(want.Words))
	}
	for i, w := range want.Words {
		if got.Words[i] != w {
			t.Fatalf("%s: packed word %d = %#x, want %#x", label, i, got.Words[i], w)
		}
	}
}

// chunkChecksums is the allocate-fresh form of chunkChecksumsInto the
// white-box attribution tests call.
func (cdc Codec) chunkChecksums(e *EncodedStash) (full uint32, chunks []uint32, ok bool) {
	return cdc.chunkChecksumsInto(nil, e)
}

// TestConcurrentDecodeOfOneStash pins that decoding reads the payload and
// writes nothing but its destination: for every technique, many goroutines
// verify and decode the same sealed stash at once (the -race workload), on
// a shared parallel pool, and all get the same bytes.
func TestConcurrentDecodeOfOneStash(t *testing.T) {
	rng := tensor.NewRNG(13)
	const n = 7*768 + 5
	tt := tensor.New(n)
	copy(tt.Data, randStash(rng, n, 0.7))
	c := Codec{Pool: parallel.NewPool(3), ChunkElems: 768}
	for _, as := range propAssignments() {
		e, err := encodeFresh(c, as, tt)
		if err != nil {
			t.Fatalf("%v/%s: %v", as.Tech, as.Format, err)
		}
		c.Seal(e)
		want, err := decodeFresh(c, e)
		if err != nil {
			t.Fatalf("%v/%s: %v", as.Tech, as.Format, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := tensor.New(n)
				for iter := 0; iter < 5; iter++ {
					if err := c.DecodeInto(out, e); err != nil {
						t.Error(err)
						return
					}
					for i := range out.Data {
						if math.Float32bits(out.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Errorf("%v/%s: decoded[%d] = %v, want %v", as.Tech, as.Format, i, out.Data[i], want.Data[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
