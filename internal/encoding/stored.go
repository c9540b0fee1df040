package encoding

import (
	"fmt"

	"gist/internal/bitpack"
	"gist/internal/sparse"
	"gist/internal/tensor"
)

// StoredStash reads a verified ZVC, SSDC or dense DPR container as stored:
// the layers.StashReader a Conv2D or FCOp backward decodes its X from an
// image at a time, with no FP32 copy of the map. Its cursor decodes a run
// of elements at a time, exactly as the whole-map decode would: ZVC
// expands its values by the mask, SSDC scatters its CSR rows' entries,
// and a DPR container (the dense fallback a ZVC or SSDC encode left
// behind) unpacks its words.
type StoredStash struct {
	e *EncodedStash
	// The cursor: the next position to decode and, for ZVC and SSDC, the
	// value slot of the first nonzero element at or after it; row is the
	// CSR row holding that position.
	p, slot, row int
}

// OpenStored readies s to read stash e as stored, after DecodeInto's checks:
// a sealed stash is verified first (corruption is ErrCorruptStash), one of
// another technique or shape is ErrShapeMismatch, and a container whose
// structure would send the cursor out of bounds is ErrCorruptStash.
func (cdc Codec) OpenStored(s *StoredStash, e *EncodedStash, shape tensor.Shape) error {
	if err := cdc.Verify(e); err != nil {
		return err
	}
	n := shape.NumElements()
	if !e.Shape.Equal(shape) {
		return fmt.Errorf("%w: %v stash of shape %v read as stored at shape %v", ErrShapeMismatch, e.Tech, e.Shape, shape)
	}
	var err error
	switch e.Tech {
	case ZVC:
		z := e.ZVC
		switch {
		case z == nil || z.Mask == nil || z.Mask.Len() != n:
			err = fmt.Errorf("%w: ZVC mask %d bits, shape %v", ErrShapeMismatch, zvcBits(z), shape)
		case len(z.Mask.Words()) != (n+63)/64 || z.Values.Check() != nil || z.Mask.PopCount() != z.Values.N:
			err = fmt.Errorf("%w: ZVC mask and values disagree", ErrCorruptStash)
		}
	case SSDC:
		c := e.CSR
		switch {
		case c == nil || c.N != n:
			err = fmt.Errorf("%w: CSR over %d elements, shape %v", ErrShapeMismatch, csrN(c), shape)
		case c.Validate() != nil || !rowsAscend(c.RowPtr, c.ColIdx):
			err = fmt.Errorf("%w: CSR rows malformed", ErrCorruptStash)
		}
	case DPR:
		switch p := e.Packed; {
		case p == nil || p.N != n:
			err = fmt.Errorf("%w: packed %d elements, shape %v", ErrShapeMismatch, packedN(p), shape)
		case p.Check() != nil:
			err = fmt.Errorf("%w: packed words malformed", ErrCorruptStash)
		}
	default:
		err = fmt.Errorf("%w: a %v stash is not read as stored by image", ErrShapeMismatch, e.Tech)
	}
	if err != nil {
		return err
	}
	s.e = e
	s.Rewind()
	return nil
}

// rowsAscend reports whether every CSR row's column indices strictly
// ascend, as the encoder writes them: a row then holds at most
// sparse.NarrowCols entries, in ascending position.
func rowsAscend(rowPtr []int32, colIdx []uint8) bool {
	for r := 0; r+1 < len(rowPtr); r++ {
		for k := rowPtr[r] + 1; k < rowPtr[r+1]; k++ {
			if colIdx[k] <= colIdx[k-1] {
				return false
			}
		}
	}
	return true
}

// Shape is the stashed map's shape.
func (s *StoredStash) Shape() tensor.Shape { return s.e.Shape }

// DecodeNext writes the len(dst) elements from the cursor on, as
// Codec.DecodeInto decodes them, into dst and moves the cursor past them:
// DPR unpacks them, ZVC expands them by its mask a stage at a time as its
// decode does (scatterNonzero), SSDC scatters its entries over zeros.
func (s *StoredStash) DecodeNext(dst []float32) {
	end := s.p + len(dst)
	switch s.e.Tech {
	case DPR:
		s.e.Packed.DecodeAt(dst, s.p)
		s.p = end
		return
	case ZVC:
		z := s.e.ZVC
		var vals [zvcStage]float32
		for b := s.p; b < end; b += zvcStage {
			e := min(b+zvcStage, end)
			k := z.Mask.PopCountRange(b, e)
			z.Values.DecodeAt(vals[:k], s.slot)
			z.Mask.ScatterNonzero(dst[b-s.p:], b, e, vals[:k])
			s.slot += k
		}
		s.p = end
		return
	}
	c := s.e.CSR
	clear(dst)
	var vals [sparse.NarrowCols]float32 // rowsAscend bounds a row's entries
	for ; s.row < c.Rows && s.row*c.Cols < end; s.row++ {
		base, j, k := s.row*c.Cols-s.p, s.slot, int(c.RowPtr[s.row+1])
		for k > j && base+int(c.ColIdx[k-1]) >= len(dst) {
			k-- // past end: the next call's
		}
		row := vals[:k-j]
		c.Values.DecodeAt(row, j)
		for i, col := range c.ColIdx[j:k] {
			dst[base+int(col)] = row[i]
		}
		s.slot = k
		if (s.row+1)*c.Cols > end { // the row goes on past end
			break
		}
	}
	s.p = end
}

// Rewind moves the cursor back to position 0.
func (s *StoredStash) Rewind() { s.p, s.slot, s.row = 0, 0, 0 }

// PositiveMaskInto returns m (a nil m allocates one) reset to the map's
// length with bit i set iff element i's decoded value is > 0 — the sign a
// ReLU's backward reads of its output, as Binarize stores it. It decodes
// the map a stage at a time on its own stack and leaves the cursor rewound.
func (s *StoredStash) PositiveMaskInto(m *bitpack.BitMask) *bitpack.BitMask {
	n := s.e.Shape.NumElements()
	m = resetMask(m, n)
	var buf [zvcStage]float32
	s.Rewind()
	for p := 0; p < n; p += len(buf) {
		b := buf[:min(len(buf), n-p)]
		s.DecodeNext(b)
		m.FillPositiveRange(b, p, p+len(b))
	}
	s.Rewind()
	return m
}
