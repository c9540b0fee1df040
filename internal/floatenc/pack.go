package floatenc

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Packed is a reduced-precision encoding of a float32 slice, stored as
// 32-bit words with the format's value packing (2, 3 or 4 values per word).
// This mirrors the DPR encoded data structure that Gist stashes between a
// feature map's forward and backward uses.
type Packed struct {
	Format Format
	N      int
	Words  []uint32
}

// NewPacked allocates a zeroed packed container for n values, ready for
// EncodeRange chunks to fill.
func NewPacked(f Format, n int) *Packed {
	vpw := f.ValuesPerWord()
	return &Packed{Format: f, N: n, Words: make([]uint32, (n+vpw-1)/vpw)}
}

// Reset reconfigures the container for n values of format f, zeroing the
// words EncodeRange will |= into and reusing the backing array when its
// capacity allows. It restores exactly the state NewPacked returns.
func (p *Packed) Reset(f Format, n int) {
	vpw := f.ValuesPerWord()
	nw := (n + vpw - 1) / vpw
	if cap(p.Words) < nw {
		p.Words = make([]uint32, nw)
	} else {
		p.Words = p.Words[:nw]
		clear(p.Words)
	}
	p.Format = f
	p.N = n
}

// SlackCap is the capacity a compacted array of n items, which never holds
// more than limit, regrows to: a quarter of slack, capped at limit. ReLU
// sparsity drifts by a few elements per step, and growing to exactly n
// re-allocated the array at every new maximum.
func SlackCap(n, limit int) int { return min(limit, n+n/4) }

// ResetCompacted is Reset for a compacted value array that never holds more
// than limit values: a short backing array regrows to SlackCap(n, limit)
// values. Lengths — and with them Bytes() — stay exact.
func (p *Packed) ResetCompacted(f Format, n, limit int) {
	if words := f.PackedBytes(n) / 4; int64(cap(p.Words)) < words {
		p.Words = make([]uint32, 0, f.PackedBytes(SlackCap(n, limit))/4)
	}
	p.Reset(f, n)
}

// EncodeSlice packs src into a reduced-precision buffer.
func EncodeSlice(f Format, src []float32) *Packed {
	p := NewPacked(f, len(src))
	p.EncodeRange(src, 0, len(src))
	return p
}

// EncodeRange is the chunk-range DPR pack kernel: it encodes src[start:end)
// into the matching slots of p, through a Packer started at start. The
// words the range fills only in part must be zero beforehand (as NewPacked
// and Reset leave them); concurrent calls over disjoint ranges may share
// those boundary words, and together write exactly the words one serial
// call over [0, N) writes. It allocates nothing.
func (p *Packed) EncodeRange(src []float32, start, end int) {
	p.checkRange(start, end)
	w := p.PackerAt(start)
	w.Append(src[start:end])
	w.Flush()
}

// Packer streams values into consecutive slots of a Packed from a start
// slot on — the compacted value array of ZVC, whose chunks start
// at a data-dependent slot, as well as DPR's dense ranges. A word the
// Packer fills whole is stored outright. A word it fills only in part —
// the one holding its first slot, when that slot is not word-aligned, and
// the one holding its last — may hold a neighbouring Packer's slots too,
// so the Packer merges it with an atomic OR. Packers over disjoint slot
// ranges of one Packed may therefore run concurrently, and together write
// exactly the words a single serial Packer writes. Partly filled words must
// be zero beforehand, as NewPacked and Reset leave them.
type Packer struct {
	p      *Packed
	t      *fmtConsts
	k      int    // the next slot
	acc    uint32 // the encoded slots of word k/vpw filled so far
	shared bool   // acc's word holds slots before the Packer's first
}

// PackerAt returns a Packer whose first value lands in slot k.
func (p *Packed) PackerAt(k int) Packer {
	p.checkRange(k, k)
	return Packer{p: p, t: &fmtTab[p.Format], k: k, shared: k%p.Format.ValuesPerWord() != 0}
}

// Append encodes src into the next len(src) slots. Whole words in the
// middle go through the word-parallel kernel (packWords); only the slots
// that finish or start a partial word are encoded one at a time.
func (w *Packer) Append(src []float32) {
	p := w.p
	p.checkRange(w.k, w.k+len(src))
	f := p.Format
	if f == FP32 {
		for i, v := range src {
			p.Words[w.k+i] = math.Float32bits(v)
		}
		w.k += len(src)
		return
	}
	vpw, nbits := f.ValuesPerWord(), uint(f.Bits())
	for len(src) > 0 && w.k%vpw != 0 {
		w.acc |= encodeFast(w.t, f, src[0]) << (uint(w.k%vpw) * nbits)
		src = src[1:]
		if w.k++; w.k%vpw == 0 {
			w.store(w.k/vpw - 1)
		}
	}
	full := len(src) / vpw * vpw
	packWords(w.t, f, p.Words[w.k/vpw:], src[:full])
	w.k += full
	for _, v := range src[full:] {
		w.acc |= encodeFast(w.t, f, v) << (uint(w.k%vpw) * nbits)
		w.k++
	}
}

// Flush writes the partial word the stream ends in, if any; it ends the
// stream. A partial word with no bits set — nothing encoded into it, as
// when the Packer appended nothing — is left alone: it is zero already,
// and the Packer that owns the rest of it may be storing it outright.
func (w *Packer) Flush() {
	if vpw := w.p.Format.ValuesPerWord(); w.k%vpw != 0 && w.acc != 0 {
		w.shared = w.shared || w.k < w.p.N // the rest of the word is another Packer's
		w.store(w.k / vpw)
	}
}

// store writes acc to word i: outright when the Packer owns the whole word,
// else by an atomic OR into the zeroed word it shares.
func (w *Packer) store(i int) {
	if w.shared {
		for word := &w.p.Words[i]; ; {
			old := atomic.LoadUint32(word)
			if atomic.CompareAndSwapUint32(word, old, old|w.acc) {
				break
			}
		}
	} else {
		w.p.Words[i] = w.acc
	}
	w.acc, w.shared = 0, false
}

// packWords is the word-parallel pack step: it stores src's values, a
// whole number of words of format f, into words[0:len(src)/vpw]. Each
// iteration encodes one storage word — 2, 3 or 4 values through the
// inlined branch-free encStep (FP16: enc16Step, its constants folded) ORed
// together with constant shifts, one memory write and no per-element
// divide/modulo; the single branch per word is the rare "some slot needs
// the scalar slow path" escape. Output is bit-identical to the scalar
// reference encodeRangeScalar.
func packWords(t *fmtConsts, f Format, words []uint32, src []float32) {
	switch f {
	case FP16:
		for i := 0; i+2 <= len(src); i += 2 {
			s := src[i : i+2 : i+2]
			e0, k0 := enc16Step(math.Float32bits(s[0]))
			e1, k1 := enc16Step(math.Float32bits(s[1]))
			if k0&k1 == 0 {
				words[i>>1] = encodeFast(t, FP16, s[0]) |
					encodeFast(t, FP16, s[1])<<16
				continue
			}
			words[i>>1] = e0 | e1<<16
		}
	case FP10:
		for i := 0; i+3 <= len(src); i += 3 {
			s := src[i : i+3 : i+3]
			e0, k0 := encStep(t, math.Float32bits(s[0]))
			e1, k1 := encStep(t, math.Float32bits(s[1]))
			e2, k2 := encStep(t, math.Float32bits(s[2]))
			if k0&k1&k2 == 0 {
				words[i/3] = encodeFast(t, FP10, s[0]) |
					encodeFast(t, FP10, s[1])<<10 |
					encodeFast(t, FP10, s[2])<<20
				continue
			}
			words[i/3] = e0 | e1<<10 | e2<<20
		}
	case FP8:
		for i := 0; i+4 <= len(src); i += 4 {
			s := src[i : i+4 : i+4]
			e0, k0 := encStep(t, math.Float32bits(s[0]))
			e1, k1 := encStep(t, math.Float32bits(s[1]))
			e2, k2 := encStep(t, math.Float32bits(s[2]))
			e3, k3 := encStep(t, math.Float32bits(s[3]))
			if k0&k1&k2&k3 == 0 {
				words[i>>2] = encodeFast(t, FP8, s[0]) |
					encodeFast(t, FP8, s[1])<<8 |
					encodeFast(t, FP8, s[2])<<16 |
					encodeFast(t, FP8, s[3])<<24
				continue
			}
			words[i>>2] = e0 | e1<<8 | e2<<16 | e3<<24
		}
	}
}

// DecodeSlice unpacks the buffer back to float32 values. dst must have
// length p.N; if nil, a new slice is allocated.
func (p *Packed) DecodeSlice(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, p.N)
	}
	if len(dst) != p.N {
		panic("floatenc: DecodeSlice length mismatch")
	}
	p.DecodeRange(dst, 0, p.N)
	return dst
}

// DecodeRange is the chunk-range DPR unpack kernel: dst[start:end) receives
// the decoded values of slots [start, end). Each element is written
// independently, so chunks may cover any partition of [0, N).
func (p *Packed) DecodeRange(dst []float32, start, end int) {
	p.checkRange(start, end)
	p.DecodeAt(dst[start:end], start)
}

// DecodeAt decodes slots [k, k+len(dst)) into dst — a compacted value
// array read back a run at a time from any slot.
//
// Word-parallel: after a ragged head aligns to a word boundary, the
// interior loads each storage word once and splits it into slots with
// constant shifts — table lookups for FP8/FP10, the arithmetic re-bias
// kernel for FP16, both slots of a word at once (dec16Pair). Output is
// bit-identical to decodeRangeScalar; it allocates nothing.
func (p *Packed) DecodeAt(dst []float32, k int) {
	p.checkRange(k, k+len(dst))
	f := p.Format
	if f == FP32 {
		for i, w := range p.Words[k : k+len(dst)] {
			dst[i] = math.Float32frombits(w)
		}
		return
	}
	vpw := f.ValuesPerWord()
	nbits := uint(f.Bits())
	mask := uint32(1)<<nbits - 1
	for ; len(dst) > 0 && k%vpw != 0; k++ {
		dst[0] = f.Decode(p.Words[k/vpw] >> (uint(k%vpw) * nbits) & mask)
		dst = dst[1:]
	}
	words := p.Words[k/vpw:]
	i := 0
	switch f {
	case FP16:
		for ; i+2 <= len(dst); i += 2 {
			w := words[i>>1]
			if r, ok := dec16Pair(w); ok {
				dst[i], dst[i+1] = math.Float32frombits(uint32(r)), math.Float32frombits(uint32(r>>32))
				continue
			}
			dst[i], dst[i+1] = decode16(w&0xffff), decode16(w>>16)
		}
	case FP10:
		for ; i+3 <= len(dst); i += 3 {
			unpack10((*[3]float32)(dst[i:i+3]), words[i/3])
		}
	case FP8:
		for ; i+4 <= len(dst); i += 4 {
			unpack8((*[4]float32)(dst[i:i+4]), words[i>>2])
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = f.Decode(words[i/vpw] >> (uint(i%vpw) * nbits) & mask)
	}
}

// unpack10 and unpack8 are DecodeRange's one word step for
// FP10 and FP8: packed word w's slots into d, its low bits into d[0].
func unpack10(d *[3]float32, w uint32) {
	d[0], d[1], d[2] = fp10LUT[w&0x3ff], fp10LUT[w>>10&0x3ff], fp10LUT[w>>20&0x3ff]
}

func unpack8(d *[4]float32, w uint32) {
	d[0], d[1], d[2], d[3] = fp8LUT[w&0xff], fp8LUT[w>>8&0xff], fp8LUT[w>>16&0xff], fp8LUT[w>>24]
}

// Check reports an error unless p holds exactly N values of a known format
// — what a deserialized or damaged container must pass before a decode
// indexes its words.
func (p *Packed) Check() error {
	switch p.Format {
	case FP32, FP16, FP10, FP8:
	default:
		return fmt.Errorf("floatenc: unknown packed format %d", int(p.Format))
	}
	if vpw := p.Format.ValuesPerWord(); p.N < 0 || len(p.Words) != (p.N+vpw-1)/vpw {
		return fmt.Errorf("floatenc: %d packed words for %d %s values", len(p.Words), p.N, p.Format)
	}
	return nil
}

func (p *Packed) checkRange(start, end int) {
	if start < 0 || end < start || end > p.N {
		panic(fmt.Sprintf("floatenc: range [%d,%d) outside [0,%d)", start, end, p.N))
	}
}

// Bytes returns the packed storage size in bytes.
func (p *Packed) Bytes() int64 {
	return int64(len(p.Words)) * 4
}

// QuantizeSlice rounds every element of xs through the format in place and
// returns xs. This is the numerical effect of a DPR encode/decode round trip
// without materializing the packed representation, used by the training
// executor. The per-format loops feed the fast encode kernel straight into
// the fast decode (LUT or re-bias) with no interface dispatch per element;
// output is bit-identical to quantizeSliceScalar.
func QuantizeSlice(f Format, xs []float32) []float32 {
	switch f {
	case FP32:
		return xs
	case FP16:
		for i, v := range xs {
			enc, ok := enc16Step(math.Float32bits(v))
			if ok == 0 {
				enc = FP16.encodeScalar(v)
			}
			r, finite := dec16Pair(enc)
			if !finite {
				xs[i] = FP16.decodeScalar(enc)
				continue
			}
			xs[i] = math.Float32frombits(uint32(r))
		}
	case FP10:
		t := &fmtTab[FP10]
		for i, v := range xs {
			enc, ok := encStep(t, math.Float32bits(v))
			if ok == 0 {
				enc = FP10.encodeScalar(v)
			}
			xs[i] = fp10LUT[enc]
		}
	case FP8:
		t := &fmtTab[FP8]
		for i, v := range xs {
			enc, ok := encStep(t, math.Float32bits(v))
			if ok == 0 {
				enc = FP8.encodeScalar(v)
			}
			xs[i] = fp8LUT[enc]
		}
	default:
		for i, v := range xs {
			xs[i] = f.Quantize(v)
		}
	}
	return xs
}
