package floatenc

// Retained scalar range references: the original slot-at-a-time
// EncodeRange/DecodeRange and the per-element QuantizeSlice, kept verbatim
// as the ground truth of the differential tests and the `scalar` legs of
// the Kernel benchmarks that `make bench-gate` compares against. They call
// the per-value encodeScalar/decodeScalar in scalar.go, which stay beside
// the production code because the fast paths fall back to them. Do not
// optimize these: their value is being obviously correct and frozen.

// encodeRangeScalar is the original slot-at-a-time EncodeRange: a divide,
// a modulo and a full Encode per element.
func (p *Packed) encodeRangeScalar(src []float32, start, end int) {
	p.checkRange(start, end)
	vpw := p.Format.ValuesPerWord()
	bits := uint(p.Format.Bits())
	for i := start; i < end; i++ {
		w, slot := i/vpw, uint(i%vpw)
		p.Words[w] |= p.Format.encodeScalar(src[i]) << (slot * bits)
	}
}

// decodeRangeScalar is the original slot-at-a-time DecodeRange.
func (p *Packed) decodeRangeScalar(dst []float32, start, end int) {
	p.checkRange(start, end)
	vpw := p.Format.ValuesPerWord()
	bits := uint(p.Format.Bits())
	mask := uint32(1)<<bits - 1
	for i := start; i < end; i++ {
		w, slot := i/vpw, uint(i%vpw)
		dst[i] = p.Format.decodeScalar((p.Words[w] >> (slot * bits)) & mask)
	}
}

// quantizeSliceScalar is the original QuantizeSlice: a full scalar
// encode/decode round trip per element.
func quantizeSliceScalar(f Format, xs []float32) []float32 {
	if f == FP32 {
		return xs
	}
	for i, v := range xs {
		xs[i] = f.decodeScalar(f.encodeScalar(v))
	}
	return xs
}
