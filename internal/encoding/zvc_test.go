package encoding

import (
	"errors"
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/tensor"
)

// TestZVCPooledEncodeZeroAllocs pins the steady-state allocation contract:
// once a pooled codec has encoded a stash, re-encoding into the same
// container allocates nothing — the mask and the packed value array are
// reused, and no quantize scratch is taken. Decode into a preallocated tensor is
// likewise alloc-free. This is the property the training loop's per-step
// stash pipeline depends on.
func TestZVCPooledEncodeZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := tensor.NewRNG(11)
	const n = 4096
	tt := tensor.New(n)
	copy(tt.Data, randStash(rng, n, 0.8))
	out := tensor.New(n)
	for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16} {
		c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
		as := &Assignment{Tech: ZVC, Format: f}
		e := &EncodedStash{}
		// Warm: the first encode sizes the payload.
		if err := c.EncodeStashInto(e, as, tt); err != nil {
			t.Fatalf("%s: warm encode: %v", f, err)
		}
		if a := testing.AllocsPerRun(10, func() {
			if err := c.EncodeStashInto(e, as, tt); err != nil {
				t.Fatalf("%s: re-encode: %v", f, err)
			}
		}); a != 0 {
			t.Errorf("%s: pooled re-encode allocs %v per run, want 0", f, a)
		}
		if err := c.DecodeInto(out, e); err != nil {
			t.Fatalf("%s: warm decode: %v", f, err)
		}
		if a := testing.AllocsPerRun(10, func() {
			if err := c.DecodeInto(out, e); err != nil {
				t.Fatalf("%s: decode: %v", f, err)
			}
		}); a != 0 {
			t.Errorf("%s: pooled decode allocs %v per run, want 0", f, a)
		}
	}
}

// TestZVCRisingNonzerosZeroAllocs pins that the value array keeps up with
// a map whose nonzero count creeps up a few elements a step — ReLU
// sparsity drifting in training — without regrowing at every new maximum:
// a short array regrows with a quarter of slack, so two hundred re-encodes
// that add four nonzeros each allocate nothing. Growing to the exact count
// re-allocated whenever the count crossed the allocator's size class.
func TestZVCRisingNonzerosZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 8192
	for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16} {
		tt := tensor.New(n)
		for i := 0; i < n; i += 2 {
			tt.Data[i] = 0.5 + float32(i%7) // half the map nonzero
		}
		c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
		as := &Assignment{Tech: ZVC, Format: f}
		e := &EncodedStash{}
		if err := c.EncodeStashInto(e, as, tt); err != nil {
			t.Fatalf("%s: warm encode: %v", f, err)
		}
		next := 1 // the next zero to turn nonzero
		rising := func() {
			for k := 0; k < 100; k++ {
				for j := 0; j < 4; j++ {
					tt.Data[next] = 1.5
					next += 2
				}
				if err := c.EncodeStashInto(e, as, tt); err != nil {
					t.Fatalf("%s: re-encode: %v", f, err)
				}
			}
		}
		if a := testing.AllocsPerRun(1, rising); a != 0 {
			t.Errorf("%s: 100 re-encodes with rising nonzeros allocate %v times, want 0", f, a)
		}
		if got := e.ZVC.Values.N; got != n/2+800 {
			t.Fatalf("%s: %d nonzeros encoded, want %d", f, got, n/2+800)
		}
		if want := zvcBytes(n, float64(n/2-800)/n, f); e.Bytes() != want {
			t.Errorf("%s: held %d bytes, want the exact %d", f, e.Bytes(), want)
		}
	}
}

// TestZVCDecodeDetectsMaskValueMismatch pins the decode-side structural
// check: a mask whose popcount disagrees with the value array (the state
// every mask corruption produces) is a typed ErrCorruptStash, never a
// misaligned scatter.
func TestZVCDecodeDetectsMaskValueMismatch(t *testing.T) {
	rng := tensor.NewRNG(17)
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
	tt := tensor.New(2000)
	copy(tt.Data, randStash(rng, 2000, 0.8))
	enc, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP32}, tt)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a mask bit that is currently zero: popcount grows past the
	// payload.
	words := enc.ZVC.Mask.Words()
	for i := 0; i < enc.ZVC.Mask.Len(); i++ {
		if words[i/64]&(1<<(uint(i)%64)) == 0 {
			words[i/64] ^= 1 << (uint(i) % 64)
			break
		}
	}
	if _, err := decodeFresh(c, enc); !errors.Is(err, ErrCorruptStash) {
		t.Fatalf("mask/value mismatch decode error = %v, want ErrCorruptStash", err)
	}
	// Truncated value array: popcount exceeds payload the other way.
	enc2, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP32}, tt)
	if err != nil {
		t.Fatal(err)
	}
	enc2.ZVC.Values.N--
	enc2.ZVC.Values.Words = enc2.ZVC.Values.Words[:enc2.ZVC.Values.N]
	if _, err := decodeFresh(c, enc2); !errors.Is(err, ErrCorruptStash) {
		t.Fatalf("truncated values decode error = %v, want ErrCorruptStash", err)
	}
}

// TestZVCQuantizeFlushWidensMask checks the layered-DPR semantics: values
// the narrow format flushes to zero drop out of both the mask and the
// payload, so the decoded result still equals Format.Quantize elementwise
// while the stash shrinks.
func TestZVCQuantizeFlushWidensMask(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
	tt := tensor.New(1024)
	for i := range tt.Data {
		switch i % 4 {
		case 0:
			tt.Data[i] = 1e-30 // flushes to zero at FP8
		case 1:
			tt.Data[i] = 0.5
		}
	}
	enc, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP8}, tt)
	if err != nil {
		t.Fatal(err)
	}
	if nnz := enc.ZVC.Mask.PopCount(); nnz != 256 {
		t.Fatalf("mask popcount %d after FP8 flush, want only the 256 representable nonzeros", nnz)
	}
	dec, err := decodeFresh(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tt.Data {
		if want := floatenc.FP8.Quantize(v); math.Float32bits(dec.Data[i]) != math.Float32bits(want) {
			t.Fatalf("decoded[%d] = %v, want Quantize = %v (in %v)", i, dec.Data[i], want, v)
		}
	}
}

// FuzzZVCRoundTrip drives the ZVC encode → seal → verify → decode pipeline
// from fuzzer-chosen data and geometry: every input either round-trips
// exactly (FP32) / to Format.Quantize (FP16), or fails the cost guard with
// the typed ErrStashTooLarge — never a panic, never silent corruption.
func FuzzZVCRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint8(0), []byte{0, 0, 0, 0})
	f.Add(uint16(769), uint8(1), []byte{1, 2, 3, 4, 0, 0, 0, 0})
	f.Add(uint16(2000), uint8(0), []byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0})
	f.Fuzz(func(t *testing.T, n16 uint16, fsel uint8, raw []byte) {
		n := int(n16)%4096 + 1
		format := floatenc.FP32
		if fsel%2 == 1 {
			format = floatenc.FP16
		}
		tt := tensor.New(n)
		for i := range tt.Data {
			if len(raw) == 0 {
				break
			}
			b := raw[(i*4)%len(raw)]
			if b%3 != 0 { // keep the data sparse enough to exercise both guard outcomes
				tt.Data[i] = float32(int8(b)) / 16
			}
		}
		c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
		as := &Assignment{Tech: ZVC, Format: format}
		enc, err := encodeFresh(c, as, tt)
		if err != nil {
			if !errors.Is(err, ErrStashTooLarge) {
				t.Fatalf("encode error %v is not ErrStashTooLarge", err)
			}
			return
		}
		c.Seal(enc)
		if err := c.Verify(enc); err != nil {
			t.Fatalf("fresh stash fails verify: %v", err)
		}
		dec, err := decodeFresh(c, enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i, v := range tt.Data {
			want := format.Quantize(v)
			if math.Float32bits(dec.Data[i]) != math.Float32bits(want) {
				t.Fatalf("round-trip[%d] = %v, want %v (in %v)", i, dec.Data[i], want, v)
			}
		}
	})
}
