package encoding

import (
	"encoding/binary"
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// storedMap builds a map from fuzz bytes, four per element: the first picks
// the kind — ±0, a subnormal, a value every reduced format flushes, one FP8
// flushes and FP16 keeps, ±Inf, NaN, or the raw bits of the other three
// bytes — so every regime the containers treat apart shows up densely.
func storedMap(data []byte) []float32 {
	xs := make([]float32, len(data)/4)
	for i := range xs {
		b := data[4*i:]
		raw := binary.LittleEndian.Uint32(b) >> 8
		sign := float32(1)
		if b[1]&1 != 0 {
			sign = -1
		}
		switch b[0] % 10 {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = float32(math.Copysign(0, -1))
		case 2:
			xs[i] = math.Float32frombits(raw&0x7fffff|1) * sign // subnormal
		case 3:
			xs[i] = sign * 1e-20 // below every reduced format's smallest value
		case 4:
			xs[i] = sign * 1e-5 // FP16 keeps it, FP8 flushes it
		case 5:
			xs[i] = float32(math.Inf(int(sign)))
		case 6:
			xs[i] = float32(math.NaN())
		default:
			xs[i] = math.Float32frombits(raw<<9 | raw>>14) // any bits
		}
	}
	return xs
}

// FuzzStoredStash holds the stored-stash reader to the decode it replaces:
// for ZVC, SSDC and dense DPR containers at FP32, FP16 and FP8, DecodeNext
// over runs cut at arbitrary points (crossing mask words and CSR rows) must
// give the decode's value bits, and the sign mask must agree with it.
func FuzzStoredStash(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 1, 2, 3, 2, 9, 9, 9, 5, 0, 0, 0}, uint16(3))
	seed := make([]byte, 4*700) // three zeros in four: every container fits
	for i := range seed {
		if seed[i] = byte(i*37 + i/5); i%4 == 0 && i%16 != 0 {
			seed[i] = 0
		}
	}
	f.Add(seed, uint16(257))
	f.Add(seed[:4*300], uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		xs := storedMap(data)
		if len(xs) == 0 {
			return
		}
		x := tensor.New(1, len(xs))
		copy(x.Data, xs)
		step := int(cut)%300 + 1
		c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
		for _, tech := range []Technique{ZVC, SSDC, DPR} {
			for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP8} {
				enc, err := encodeFresh(c, &Assignment{Tech: tech, Format: f}, x)
				if err != nil {
					continue // the cost guard: the container would not shrink the map
				}
				c.Seal(enc)
				dec, err := decodeFresh(c, enc)
				if err != nil {
					t.Fatalf("%v/%v: decode: %v", tech, f, err)
				}
				checkStored(t, c, enc, dec, step)
			}
		}
	})
}

func checkStored(t *testing.T, c Codec, enc *EncodedStash, dec *tensor.Tensor, step int) {
	t.Helper()
	label := enc.Tech.String()
	var s StoredStash
	if err := c.OpenStored(&s, enc, dec.Shape); err != nil {
		t.Fatalf("%s: OpenStored: %v", label, err)
	}
	n := len(dec.Data)
	out := make([]float32, n)
	for _, cut := range []int{step, step/3 + 1} { // the second pass checks Rewind
		s.Rewind()
		for i := range out {
			out[i] = 99 // DecodeNext writes every element
		}
		for lo := 0; lo < n; lo += cut {
			s.DecodeNext(out[lo:min(lo+cut, n)])
		}
		for i, v := range out {
			if math.Float32bits(v) != math.Float32bits(dec.Data[i]) {
				t.Fatalf("%s: runs of %d: DecodeNext element %d is %#x, decode %#x",
					label, cut, i, math.Float32bits(v), math.Float32bits(dec.Data[i]))
			}
		}
	}
	m := s.PositiveMaskInto(nil)
	for i, v := range dec.Data {
		if m.Get(i) != (v > 0) {
			t.Fatalf("%s: sign mask bit %d is %t, decoded value %g", label, i, m.Get(i), v)
		}
	}
}

// TestOpenStoredRejects: a Binarize stash is not read this way, a shape
// other than the stash's is a mismatch, and a sealed container whose
// payload changed fails its verify before anything is read.
func TestOpenStoredRejects(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1)}
	x := tensor.New(2, 300)
	copy(x.Data, randStash(tensor.NewRNG(5), len(x.Data), 0.7))
	var s StoredStash
	bin, err := encodeFresh(c, &Assignment{Tech: Binarize, Format: floatenc.FP32}, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStored(&s, bin, x.Shape); err == nil {
		t.Error("a Binarize mask read as stored by image")
	}
	zvc, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP16}, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStored(&s, zvc, tensor.Shape{300, 2}); err == nil {
		t.Error("a stash read at the wrong shape")
	}
	c.Seal(zvc)
	zvc.ZVC.Values.Words[0] ^= 1
	if err := c.OpenStored(&s, zvc, x.Shape); err == nil {
		t.Error("a corrupted sealed stash read as stored")
	}
}
