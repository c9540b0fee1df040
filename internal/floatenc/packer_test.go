package floatenc

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestMinNonzeroBits checks the flush threshold against the quantize round
// trip it stands for: on a band of magnitudes around the threshold, on a
// stride through every FP32 magnitude, and on both signs, Quantize(v) != 0
// holds exactly when v's magnitude bits reach MinNonzeroBits.
func TestMinNonzeroBits(t *testing.T) {
	for _, f := range append([]Format{FP32}, diffFormats...) {
		min := f.MinNonzeroBits()
		check := func(m uint32) {
			for _, sign := range []uint32{0, 1 << 31} {
				v := math.Float32frombits(sign | m)
				if got, want := f.Quantize(v) != 0, m >= min; got != want {
					t.Fatalf("%v: magnitude %#08x: quantized nonzero %v, threshold %#08x says %v",
						f, m, got, min, want)
				}
			}
		}
		for m := max(min, 1<<16) - 1<<16; m < min+1<<16; m++ {
			check(m)
		}
		for m := uint64(0); m <= 0x7fffffff; m += 4099 {
			check(uint32(m))
		}
		check(0x7f800000) // +Inf clamps
		check(0x7fc00000) // NaN
		check(0x7fffffff)
	}
	if FP32.MinNonzeroBits() != 1 {
		t.Fatalf("FP32 threshold %#x, want 1 (plain v != 0)", FP32.MinNonzeroBits())
	}
}

// packedSlots decodes slot i of p with the scalar reference.
func packedSlot(p *Packed, i int) uint32 {
	vpw, nbits := p.Format.ValuesPerWord(), uint(p.Format.Bits())
	if nbits == 32 {
		return p.Words[i]
	}
	return p.Words[i/vpw] >> (uint(i%vpw) * nbits) & (1<<nbits - 1)
}

// TestPackerAnyPartition packs one value stream through Packers over
// random partitions of the slots — boundaries at every residue mod the
// values per word, each Packer fed in random batches — and requires the
// words of the one scalar encode; DecodeAt then reads back every run.
func TestPackerAnyPartition(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, f := range append([]Format{FP32}, diffFormats...) {
		for _, n := range []int{0, 1, 2, 3, 5, 11, 64, 97, 768, 1001} {
			xs := diffInput(n, int64(n)+3)
			want := NewPacked(f, n)
			want.encodeRangeScalar(xs, 0, n)
			for trial := 0; trial < 20; trial++ {
				cuts := []int{0}
				for c := 0; c < n; c += 1 + r.Intn(n/3+1) {
					if c > 0 {
						cuts = append(cuts, c)
					}
				}
				cuts = append(cuts, n)
				got := NewPacked(f, n)
				for i := 0; i+1 < len(cuts); i++ {
					w := got.PackerAt(cuts[i])
					for k := cuts[i]; k < cuts[i+1]; {
						b := min(cuts[i+1], k+r.Intn(9))
						w.Append(xs[k:b])
						k = b
					}
					w.Flush()
				}
				for w := range want.Words {
					if got.Words[w] != want.Words[w] {
						t.Fatalf("%v n=%d cuts %v: word %d = %#08x, scalar %#08x",
							f, n, cuts, w, got.Words[w], want.Words[w])
					}
				}
				lo := r.Intn(n + 1)
				hi := lo + r.Intn(n-lo+1)
				dst := make([]float32, hi-lo)
				got.DecodeAt(dst, lo)
				for i, v := range dst {
					if ref := f.decodeScalar(packedSlot(want, lo+i)); math.Float32bits(v) != math.Float32bits(ref) {
						t.Fatalf("%v n=%d: DecodeAt(%d)[%d] = %#08x, scalar %#08x",
							f, n, lo, i, math.Float32bits(v), math.Float32bits(ref))
					}
				}
			}
		}
	}
}

// TestRacePackersShareBoundaryWords runs Packers over unaligned, disjoint
// slot ranges of one Packed concurrently — neighbours share a boundary
// word, which each merges atomically, and an empty range at N touches
// nothing — and requires the serial words. Run under -race via
// `make race-hot`.
func TestRacePackersShareBoundaryWords(t *testing.T) {
	for _, f := range diffFormats {
		const n = 4001
		xs := diffInput(n, int64(f)+5)
		want := NewPacked(f, n)
		want.encodeRangeScalar(xs, 0, n)
		bounds := []int{0, 1, 2, 769, 1538, 1539, 3001, n, n} // the last range is empty
		for iter := 0; iter < 25; iter++ {
			p := NewPacked(f, n)
			var wg sync.WaitGroup
			for c := 0; c+1 < len(bounds); c++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					p.EncodeRange(xs, lo, hi)
				}(bounds[c], bounds[c+1])
			}
			wg.Wait()
			for w := range want.Words {
				if p.Words[w] != want.Words[w] {
					t.Fatalf("%v iter %d: word %d = %#08x, want %#08x", f, iter, w, p.Words[w], want.Words[w])
				}
			}
		}
	}
}

// TestPackedCheck pins what a decode may trust: a known format and exactly
// the words N values need.
func TestPackedCheck(t *testing.T) {
	for _, c := range []struct {
		p  Packed
		ok bool
	}{
		{Packed{Format: FP16, N: 3, Words: make([]uint32, 2)}, true},
		{Packed{Format: FP10, N: 0}, true},
		{Packed{Format: FP10, N: 4, Words: make([]uint32, 1)}, false},
		{Packed{Format: FP8, N: 4, Words: make([]uint32, 2)}, false},
		{Packed{Format: Format(9), N: 0}, false},
		{Packed{Format: FP32, N: -1}, false},
	} {
		if err := c.p.Check(); (err == nil) != c.ok {
			t.Errorf("%v N=%d words=%d: Check() = %v, want ok=%v", c.p.Format, c.p.N, len(c.p.Words), err, c.ok)
		}
	}
}
