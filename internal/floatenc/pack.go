package floatenc

import (
	"fmt"
	"math"
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

// EncodeSlice packs src into a reduced-precision buffer.
func EncodeSlice(f Format, src []float32) *Packed {
	p := NewPacked(f, len(src))
	p.EncodeRange(src, 0, len(src))
	return p
}

// EncodeRange is the chunk-range DPR pack kernel: it encodes src[start:end)
// into the matching words of p. The words touched must be zero beforehand
// (as NewPacked leaves them), and for parallel chunks start must be a
// multiple of ValuesPerWord() — and end too, unless end == N — so each
// chunk owns whole words and racing writers never share one.
//
// Word-parallel: after a ragged head aligns to a word boundary, the
// interior encodes a full storage word per iteration — 2, 3 or 4 values
// through the branch-free encodeFast kernel ORed together with constant
// shifts, one memory write and no per-element divide/modulo. Output is
// bit-identical to encodeRangeScalar; it allocates nothing.
func (p *Packed) EncodeRange(src []float32, start, end int) {
	p.checkRange(start, end)
	if p.Format == FP32 {
		for i := start; i < end; i++ {
			p.Words[i] |= math.Float32bits(src[i])
		}
		return
	}
	t := &fmtTab[p.Format]
	vpw := p.Format.ValuesPerWord()
	nbits := uint(p.Format.Bits())
	i := start
	for ; i < end && i%vpw != 0; i++ {
		p.Words[i/vpw] |= encodeFast(t, p.Format, src[i]) << (uint(i%vpw) * nbits)
	}
	// Interior: one storage word per iteration, every slot through the
	// inlined branch-free encStep; the single branch per word is the rare
	// "some slot needs the scalar slow path" escape.
	switch p.Format {
	case FP16:
		for ; i+2 <= end; i += 2 {
			s := src[i : i+2 : i+2]
			e0, k0 := encStep(t, math.Float32bits(s[0]))
			e1, k1 := encStep(t, math.Float32bits(s[1]))
			if k0&k1 == 0 {
				p.Words[i>>1] |= encodeFast(t, FP16, s[0]) |
					encodeFast(t, FP16, s[1])<<16
				continue
			}
			p.Words[i>>1] |= e0 | e1<<16
		}
	case FP10:
		for ; i+3 <= end; i += 3 {
			s := src[i : i+3 : i+3]
			e0, k0 := encStep(t, math.Float32bits(s[0]))
			e1, k1 := encStep(t, math.Float32bits(s[1]))
			e2, k2 := encStep(t, math.Float32bits(s[2]))
			if k0&k1&k2 == 0 {
				p.Words[i/3] |= encodeFast(t, FP10, s[0]) |
					encodeFast(t, FP10, s[1])<<10 |
					encodeFast(t, FP10, s[2])<<20
				continue
			}
			p.Words[i/3] |= e0 | e1<<10 | e2<<20
		}
	case FP8:
		for ; i+4 <= end; i += 4 {
			s := src[i : i+4 : i+4]
			e0, k0 := encStep(t, math.Float32bits(s[0]))
			e1, k1 := encStep(t, math.Float32bits(s[1]))
			e2, k2 := encStep(t, math.Float32bits(s[2]))
			e3, k3 := encStep(t, math.Float32bits(s[3]))
			if k0&k1&k2&k3 == 0 {
				p.Words[i>>2] |= encodeFast(t, FP8, s[0]) |
					encodeFast(t, FP8, s[1])<<8 |
					encodeFast(t, FP8, s[2])<<16 |
					encodeFast(t, FP8, s[3])<<24
				continue
			}
			p.Words[i>>2] |= e0 | e1<<8 | e2<<16 | e3<<24
		}
	}
	for ; i < end; i++ {
		p.Words[i/vpw] |= encodeFast(t, p.Format, src[i]) << (uint(i%vpw) * nbits)
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
// the decoded values. Each element is written independently, so chunks may
// cover any partition of [0, N).
//
// Word-parallel: the aligned interior loads each storage word once and
// splits it into slots with constant shifts — table lookups for FP8/FP10,
// the arithmetic re-bias kernel for FP16. Output is bit-identical to
// decodeRangeScalar; it allocates nothing.
func (p *Packed) DecodeRange(dst []float32, start, end int) {
	p.checkRange(start, end)
	if p.Format == FP32 {
		for i := start; i < end; i++ {
			dst[i] = math.Float32frombits(p.Words[i])
		}
		return
	}
	vpw := p.Format.ValuesPerWord()
	nbits := uint(p.Format.Bits())
	mask := uint32(1)<<nbits - 1
	i := start
	for ; i < end && i%vpw != 0; i++ {
		dst[i] = p.Format.Decode(p.Words[i/vpw] >> (uint(i%vpw) * nbits) & mask)
	}
	switch p.Format {
	case FP16:
		t := &fmtTab[FP16]
		for ; i+2 <= end; i += 2 {
			w := p.Words[i>>1]
			f0, k0 := dec16Step(t, w&0xffff)
			f1, k1 := dec16Step(t, w>>16)
			if k0&k1 == 0 {
				dst[i] = decode16(w & 0xffff)
				dst[i+1] = decode16(w >> 16)
				continue
			}
			dst[i] = math.Float32frombits(f0)
			dst[i+1] = math.Float32frombits(f1)
		}
	case FP10:
		for ; i+3 <= end; i += 3 {
			w := p.Words[i/3]
			dst[i] = fp10LUT[w&0x3ff]
			dst[i+1] = fp10LUT[w>>10&0x3ff]
			dst[i+2] = fp10LUT[w>>20&0x3ff]
		}
	case FP8:
		for ; i+4 <= end; i += 4 {
			w := p.Words[i>>2]
			dst[i] = fp8LUT[w&0xff]
			dst[i+1] = fp8LUT[w>>8&0xff]
			dst[i+2] = fp8LUT[w>>16&0xff]
			dst[i+3] = fp8LUT[w>>24]
		}
	}
	for ; i < end; i++ {
		dst[i] = p.Format.Decode(p.Words[i/vpw] >> (uint(i%vpw) * nbits) & mask)
	}
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
		t := &fmtTab[FP16]
		for i, v := range xs {
			enc, ok := encStep(t, math.Float32bits(v))
			if ok == 0 {
				enc = FP16.encodeScalar(v)
			}
			fp, ok := dec16Step(t, enc)
			if ok == 0 {
				xs[i] = FP16.decodeScalar(enc)
				continue
			}
			xs[i] = math.Float32frombits(fp)
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
