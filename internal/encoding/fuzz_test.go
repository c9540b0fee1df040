package encoding

import (
	"errors"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/tensor"
)

// fuzzSeeds marshals one sealed and one unsealed stash of every technique —
// the corpus the mutator grows from, guaranteeing the fuzzer starts from
// deep, structurally valid inputs rather than rejected magic bytes — plus
// the sealed layout edge cases (empty payloads, arrays that do not fit the
// chunk layout), which parse but mostly fail later, in Verify or Decode.
func fuzzSeeds(t testing.TB) [][]byte {
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
	rng := tensor.NewRNG(3)
	var seeds [][]byte
	for _, as := range propAssignments() {
		tt := tensor.New(5, 400) // 2000 elements, 3 chunks of 768
		copy(tt.Data, randStash(rng, len(tt.Data), 0.8))
		for _, seal := range []bool{false, true} {
			enc, _, err := c.EncodeStashAdaptive(as, tt)
			if err != nil {
				t.Fatalf("%v/%s: seed encode: %v", as.Tech, as.Format, err)
			}
			if seal {
				c.Seal(enc)
			}
			b, err := enc.MarshalBinary()
			if err != nil {
				t.Fatalf("%v/%s: seed marshal: %v", as.Tech, as.Format, err)
			}
			seeds = append(seeds, b)
		}
	}
	for _, tc := range layoutEdgeCases() {
		c.Seal(tc.e)
		b, err := tc.e.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: seed marshal: %v", tc.name, err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// TestMarshalRoundTrip pins the wire format: unmarshal(marshal(e)) restores
// the payload, seal state and chunk CRCs exactly, and the restored stash
// verifies and decodes identically.
func TestMarshalRoundTrip(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	rng := tensor.NewRNG(5)
	for _, as := range propAssignments() {
		tt := tensor.New(2000)
		copy(tt.Data, randStash(rng, 2000, 0.8))
		enc, _, err := c.EncodeStashAdaptive(as, tt)
		if err != nil {
			t.Fatal(err)
		}
		c.Seal(enc)
		b, err := enc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// The layout knows the blob's size: one allocation, no re-growth.
		if a := testing.AllocsPerRun(10, func() { enc.MarshalBinary() }); a != 1 && !race.Enabled {
			t.Errorf("%v/%s: MarshalBinary allocs %v per run, want 1", as.Tech, as.Format, a)
		}
		back, err := UnmarshalStash(b)
		if err != nil {
			t.Fatalf("%v/%s: unmarshal: %v", as.Tech, as.Format, err)
		}
		if !back.Sealed() {
			t.Fatalf("%v/%s: seal state lost in round trip", as.Tech, as.Format)
		}
		assertStashesIdentical(t, enc, back, as.Tech.String())
		if err := c.Verify(back); err != nil {
			t.Fatalf("%v/%s: restored stash fails verify: %v", as.Tech, as.Format, err)
		}
		want, err := c.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(back)
		if err != nil {
			t.Fatalf("%v/%s: restored stash fails decode: %v", as.Tech, as.Format, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%v/%s: restored decode[%d] = %v, want %v", as.Tech, as.Format, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// FuzzDecodeEncodedStash feeds arbitrary bytes through the full untrusted
// path — unmarshal, verify, decode — and requires typed errors, never a
// panic or unbounded allocation. Seeds are valid serialized stashes (sealed
// and unsealed, every technique) so mutations explore deep payload and
// checksum handling, not just header rejection.
func FuzzDecodeEncodedStash(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	codec := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalStash(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptStash) && !errors.Is(err, ErrNoTechnique) {
				t.Fatalf("unmarshal error %v is not a typed stash error", err)
			}
			return
		}
		if err := codec.Verify(e); err != nil {
			if !errors.Is(err, ErrCorruptStash) {
				t.Fatalf("verify error %v does not wrap ErrCorruptStash", err)
			}
			return
		}
		dec, err := codec.Decode(e)
		if err != nil {
			if !errors.Is(err, ErrCorruptStash) && !errors.Is(err, ErrShapeMismatch) && !errors.Is(err, ErrNoTechnique) {
				t.Fatalf("decode error %v is not a typed stash error", err)
			}
			return
		}
		if want := e.Shape.NumElements(); len(dec.Data) != want {
			t.Fatalf("decode returned %d elements for shape %v", len(dec.Data), e.Shape)
		}
		// A successfully decoded stash must survive re-marshal → decode.
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decodable stash failed: %v", err)
		}
		if _, err := UnmarshalStash(b); err != nil {
			t.Fatalf("re-unmarshal of decodable stash failed: %v", err)
		}
	})
}

// TestDecodeNeverPanicsOnTruncations runs every truncation prefix of every
// seed through the untrusted path — the deterministic slice of what the
// fuzzer explores, so `go test` alone covers the boundary conditions.
func TestDecodeNeverPanicsOnTruncations(t *testing.T) {
	codec := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	for _, seed := range fuzzSeeds(t) {
		for cut := 0; cut <= len(seed); cut++ {
			e, err := UnmarshalStash(seed[:cut])
			if err != nil {
				continue
			}
			if err := codec.Verify(e); err != nil {
				continue
			}
			_, _ = codec.Decode(e)
		}
	}
}

// TestUnmarshalRejectsOversizedClaims checks the allocation caps: headers
// claiming huge shapes or counts are rejected before any large allocation.
func TestUnmarshalRejectsOversizedClaims(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1)}
	tt := tensor.New(64)
	enc, err := c.EncodeStash(&Assignment{Tech: DPR, Format: floatenc.FP16}, tt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the packed value count (offset: magic 4 + tech/seal/chunk 12 +
	// rank 4 + one dim 4 + format 4 = 28) to claim 2^31 values.
	b[28], b[29], b[30], b[31] = 0, 0, 0, 0x80
	if _, err := UnmarshalStash(b); !errors.Is(err, ErrCorruptStash) {
		t.Fatalf("oversized claim error = %v, want ErrCorruptStash", err)
	}
}
