package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
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

// FuzzStoredStash holds the codec's one decoder to scalarDecode, bit for
// bit: DecodeInto at 1, 2 and 4 workers, and the cursor's DecodeNext over
// runs of one element, of an odd length, of a length that straddles mask
// words and of image sizes that are not a multiple of 256. The fuzz bytes
// are read two ways: as a map, held by every container at FP32, FP16 and
// FP8, and as a wire blob, which reaches containers no encoder writes. One
// seed is a frozen SSDC blob (hostile CSR rows), which must not parse.
func FuzzStoredStash(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 1, 2, 3, 2, 9, 9, 9, 5, 0, 0, 0}, uint16(3))
	seed := make([]byte, 4*2000) // three zeros in four: every container fits
	for i := range seed {
		if seed[i] = byte(i*37 + i/5); i%4 == 0 && i%16 != 0 {
			seed[i] = 0
		}
	}
	f.Add(seed[:4*700], uint16(257))
	f.Add(seed[:4*300], uint16(64))
	f.Add(hostileCSRBlob(f), uint16(5))
	f.Add(seed[4:], uint16(99)) // three chunks of 768, each after a nonzero: DecodeInto seeks its cursor
	codecs := storedCodecs()
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		odd := 2*(int(cut)%150) + 1
		if xs := storedMap(data); len(xs) > 0 {
			x := tensor.New(1, len(xs))
			copy(x.Data, xs)
			for _, tech := range []Technique{Binarize, ZVC, DPR} {
				for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP8} {
					enc, err := encodeFresh(codecs[1], &Assignment{Tech: tech, Format: f}, x)
					if err != nil {
						continue // the cost guard: the container would not shrink the map
					}
					codecs[1].Seal(enc)
					if err := checkStored(t, codecs, enc, odd); err != nil {
						t.Fatalf("%v/%v: %v", tech, f, err)
					}
				}
			}
		}
		if e, err := UnmarshalStash(data); err == nil && e.Shape.NumElements() <= 1<<14 {
			_ = checkStored(t, codecs, e, odd) // a rejected blob is fine; a panic or a wrong bit is not
		}
	})
}

// storedCodecs are codecs at 1, 2 and 4 workers.
func storedCodecs() []Codec {
	var cs []Codec
	for _, w := range []int{1, 2, 4} {
		cs = append(cs, Codec{Pool: parallel.NewPool(w), ChunkElems: 768})
	}
	return cs
}

// checkStored opens e, then holds DecodeInto at every codec's worker count,
// DecodeNext at every cut and the sign mask to scalarDecode. It returns the
// error OpenStored and every DecodeInto agree on, failing t if they differ.
func checkStored(t *testing.T, codecs []Codec, e *EncodedStash, odd int) error {
	t.Helper()
	label := e.Tech.String()
	var s StoredStash
	openErr := codecs[0].OpenStored(&s, e, e.Shape)
	var want []float32
	if openErr == nil {
		want = scalarDecode(e)
	}
	n := e.Shape.NumElements()
	for _, c := range codecs {
		dec := tensor.New(e.Shape...)
		if err := c.DecodeInto(dec, e); (err == nil) != (openErr == nil) {
			t.Fatalf("%s: DecodeInto at %d workers: %v, OpenStored %v", label, c.Workers(), err, openErr)
		} else if err == nil {
			sameBits(t, fmt.Sprintf("%s: DecodeInto at %d workers", label, c.Workers()), dec.Data, want)
		}
	}
	if openErr != nil {
		return openErr
	}
	out := make([]float32, n)
	for _, cut := range []int{1, odd, 300, 196, 363} {
		s.Rewind()
		for i := range out {
			out[i] = 99 // DecodeNext writes every element
		}
		for lo := 0; lo < n; lo += cut {
			s.DecodeNext(out[lo:min(lo+cut, n)])
		}
		sameBits(t, fmt.Sprintf("%s: DecodeNext in runs of %d", label, cut), out, want)
	}
	m := s.PositiveMaskInto(nil)
	for i, v := range want {
		if m.Get(i) != (v > 0) {
			t.Fatalf("%s: sign mask bit %d is %t, decoded value %g", label, i, m.Get(i), v)
		}
	}
	return nil
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %#x, scalar decode %#x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// scalarDecode is the reference decode of an opened container, an element
// at a time, sharing no code with the cursor: Binarize's bit as 0/1, ZVC's
// next value per set bit, DPR's slots.
func scalarDecode(e *EncodedStash) []float32 {
	out := make([]float32, e.Shape.NumElements())
	switch e.Tech {
	case Binarize:
		for i := range out {
			if e.Mask.Get(i) {
				out[i] = 1
			}
		}
	case ZVC:
		k := 0
		for i := range out {
			if e.ZVC.Mask.Get(i) {
				out[i] = packedAt(&e.ZVC.Values, k)
				k++
			}
		}
	case DPR:
		for i := range out {
			out[i] = packedAt(e.Packed, i)
		}
	}
	return out
}

// packedAt is slot k of p, through the format's scalar decode.
func packedAt(p *floatenc.Packed, k int) float32 {
	f := p.Format
	vpw, bits := f.ValuesPerWord(), uint(f.Bits())
	return f.Decode(p.Words[k/vpw] >> (uint(k%vpw) * bits) & (uint32(1)<<bits - 1))
}

// hostileCSRBlob is the wire form of an SSDC container no encoder wrote —
// rows of 100 columns, row 3's columns descending and row 7's first column
// repeated — frozen when the runtime still held CSR. SSDC is a planning
// model now, so the blob must fail with ErrNoTechnique.
func hostileCSRBlob(t testing.TB) []byte {
	b, err := os.ReadFile("testdata/ssdc/hostile-csr.bin")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenStoredRejects: every registered technique opens — a Binarize
// mask expands to 0/1 — and an unknown one is ErrNoTechnique from
// OpenStored and DecodeInto alike, SSDC's included, and a blob of it does
// not parse; a shape other than the stash's is a mismatch; and a sealed
// container whose payload changed fails its verify before anything is
// read.
func TestOpenStoredRejects(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1)}
	x := tensor.New(2, 300)
	copy(x.Data, randStash(tensor.NewRNG(5), len(x.Data), 0.7))
	var s StoredStash
	bin, err := encodeFresh(c, &Assignment{Tech: Binarize, Format: floatenc.FP32}, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStored(&s, bin, x.Shape); err != nil {
		t.Fatalf("a Binarize mask does not open: %v", err)
	}
	got := make([]float32, len(x.Data))
	s.DecodeNext(got[:100])
	s.DecodeNext(got[100:])
	for i, v := range x.Data {
		if (got[i] == 1) != (v > 0) || (got[i] != 0 && got[i] != 1) {
			t.Fatalf("Binarize element %d decodes to %g, value %g", i, got[i], v)
		}
	}
	for _, tech := range []Technique{Technique(99), SSDC} {
		unknown := &EncodedStash{Tech: tech, Shape: x.Shape}
		if err := c.OpenStored(&s, unknown, x.Shape); !errors.Is(err, ErrNoTechnique) {
			t.Errorf("OpenStored of %v: %v, want ErrNoTechnique", tech, err)
		}
		if err := c.DecodeInto(tensor.New(x.Shape...), unknown); !errors.Is(err, ErrNoTechnique) {
			t.Errorf("DecodeInto of %v: %v, want ErrNoTechnique", tech, err)
		}
	}
	if _, err := UnmarshalStash(hostileCSRBlob(t)); !errors.Is(err, ErrNoTechnique) {
		t.Errorf("a frozen SSDC blob parses: %v, want ErrNoTechnique", err)
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
