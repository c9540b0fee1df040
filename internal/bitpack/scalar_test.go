package bitpack

// Retained scalar reference kernels. These are the original element-at-a-
// time implementations the word-parallel kernels in bitpack.go replaced;
// they stay as the ground truth of the differential tests (vectorized ==
// scalar, byte for byte) and of the `scalar` legs of the Kernel benchmarks
// that `make bench-gate` compares against. Do not optimize these: their
// value is being obviously correct and frozen.

// fillPositiveRangeScalar is the scalar reference of FillPositiveRange:
// one conditional read-modify-write per element.
func (m *BitMask) fillPositiveRangeScalar(xs []float32, start, end int) {
	m.checkRange(start, end)
	for i := start; i < end; i++ {
		if xs[i] > 0 {
			m.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// expandRangeScalar is the scalar reference of ExpandRange: one word load
// and branch per element.
func (m *BitMask) expandRangeScalar(dst []float32, start, end int) {
	m.checkRange(start, end)
	for i := start; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i-start] = 1
		} else {
			dst[i-start] = 0
		}
	}
}

// applyGateScalar is the scalar reference of ApplyGate.
func (m *BitMask) applyGateScalar(dx, dy []float32) {
	if len(dx) != m.n || len(dy) != m.n {
		panic("bitpack: ApplyGate length mismatch")
	}
	for i := range dy {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

// popCountScalar is the scalar reference of PopCount (Kernighan clears).
func (m *BitMask) popCountScalar() int {
	c := 0
	for _, w := range m.words {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// fillNonzeroRangeScalar is the scalar reference of FillNonzeroRange:
// one IEEE compare and conditional read-modify-write per element.
func (m *BitMask) fillNonzeroRangeScalar(xs []float32, start, end int) {
	m.checkRange(start, end)
	for i := start; i < end; i++ {
		if xs[i] != 0 {
			m.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// popCountRangeScalar is the scalar reference of PopCountRange: one Get
// per bit.
func (m *BitMask) popCountRangeScalar(start, end int) int {
	m.checkRange(start, end)
	c := 0
	for i := start; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			c++
		}
	}
	return c
}

// gatherNonzeroScalar is the scalar reference of GatherNonzero.
func (m *BitMask) gatherNonzeroScalar(xs []float32, start, end int, dst []float32) int {
	m.checkRange(start, end)
	k := 0
	for i := start; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[k] = xs[i]
			k++
		}
	}
	return k
}

// scatterNonzeroScalar is the scalar reference of ScatterNonzero.
func (m *BitMask) scatterNonzeroScalar(dst []float32, start, end int, vals []float32) int {
	m.checkRange(start, end)
	k := 0
	for i := start; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i] = vals[k]
			k++
		} else {
			dst[i] = 0
		}
	}
	return k
}
