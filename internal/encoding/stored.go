package encoding

import (
	"fmt"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// StoredStash reads a verified container as stored, through one cursor that
// decodes a run of elements at a time: Binarize expands its mask to 0/1,
// ZVC expands its values by the mask, and a DPR container (assigned, or
// the dense fallback a ZVC encode left behind) unpacks its words. It is
// the codec's only decode: Codec.DecodeInto runs a copy of it per chunk,
// and it is the layers.StashReader a Conv2D, FCOp or BatchNormOp backward
// decodes its X from an image at a time, with no FP32 copy of the map.
type StoredStash struct {
	e *EncodedStash
	// The cursor: the next position to decode and, for ZVC, the value slot
	// of the first nonzero element at or after it.
	p, slot int
}

// OpenStored readies s to read stash e at shape. A sealed stash is verified
// first (corruption is ErrCorruptStash); a shape other than the stash's, or
// a payload over another element count, is ErrShapeMismatch; a container
// whose structure would send the cursor out of bounds is ErrCorruptStash;
// an unregistered technique is ErrNoTechnique. These are the codec's only
// checks of a container's structure, so a cursor that opened never panics.
func (cdc Codec) OpenStored(s *StoredStash, e *EncodedStash, shape tensor.Shape) error {
	if err := cdc.Verify(e); err != nil {
		return err
	}
	n := shape.NumElements()
	if !e.Shape.Equal(shape) {
		return fmt.Errorf("%w: %v stash of shape %v read at shape %v", ErrShapeMismatch, e.Tech, e.Shape, shape)
	}
	var err error
	switch e.Tech {
	case Binarize:
		if e.Mask == nil || e.Mask.Len() != n {
			err = fmt.Errorf("%w: mask %d bits, shape %v", ErrShapeMismatch, maskBits(e.Mask), shape)
		}
	case ZVC:
		z := e.ZVC
		switch {
		case z == nil || z.Mask == nil || z.Mask.Len() != n:
			err = fmt.Errorf("%w: ZVC mask %d bits, shape %v", ErrShapeMismatch, zvcBits(z), shape)
		case len(z.Mask.Words()) != (n+63)/64 || z.Values.Check() != nil || z.Mask.PopCount() != z.Values.N:
			err = fmt.Errorf("%w: ZVC mask and values disagree", ErrCorruptStash)
		}
	case DPR:
		switch p := e.Packed; {
		case p == nil || p.N != n:
			err = fmt.Errorf("%w: packed %d elements, shape %v", ErrShapeMismatch, packedN(p), shape)
		case p.Check() != nil:
			err = fmt.Errorf("%w: packed words malformed", ErrCorruptStash)
		}
	default:
		err = fmt.Errorf("%w (technique %v)", ErrNoTechnique, e.Tech)
	}
	if err != nil {
		return err
	}
	s.e = e
	s.Rewind()
	return nil
}

// Shape is the stashed map's shape.
func (s *StoredStash) Shape() tensor.Shape { return s.e.Shape }

// seek moves the cursor to position p. Only ZVC has work to do: its value
// slot is the mask's popcount before p.
func (s *StoredStash) seek(p int) {
	s.p = p
	if s.e.Tech == ZVC {
		s.slot = s.e.ZVC.Mask.PopCountRange(0, p)
	}
}

// DecodeNext writes the len(dst) elements from the cursor on into dst and
// moves the cursor past them: Binarize expands its mask, DPR unpacks its
// words, and ZVC expands its values by the mask a stage at a time.
func (s *StoredStash) DecodeNext(dst []float32) {
	end := s.p + len(dst)
	switch s.e.Tech {
	case Binarize:
		s.e.Mask.ExpandRange(dst, s.p, end)
	case DPR:
		s.e.Packed.DecodeAt(dst, s.p)
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
	}
	s.p = end
}

// Rewind moves the cursor back to position 0.
func (s *StoredStash) Rewind() { s.p, s.slot = 0, 0 }

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
