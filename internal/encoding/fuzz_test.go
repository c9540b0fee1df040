package encoding

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"slices"
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
// chunk layout), which parse but mostly fail later, in Verify or Decode,
// and frozen blobs of the removed Entropy technique and of SSDC, which the
// runtime no longer holds: those must not parse.
func fuzzSeeds(t testing.TB) [][]byte {
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
	rng := tensor.NewRNG(3)
	var seeds [][]byte
	for _, as := range propAssignments() {
		tt := tensor.New(5, 400) // 2000 elements, 3 chunks of 768
		copy(tt.Data, randStash(rng, len(tt.Data), 0.8))
		for _, seal := range []bool{false, true} {
			enc, _, err := adaptiveFresh(c, as, tt)
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
	// The SSDC seeds this corpus held when the runtime still encoded CSR:
	// FP32 and FP16 stashes, unsealed and sealed, and a sealed empty one.
	for i := 0; i < 5; i++ {
		b, err := os.ReadFile(fmt.Sprintf("testdata/ssdc/fuzz-%d.bin", i))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	// A sealed blob of the removed Entropy technique: a well-formed
	// container whose technique word no longer parses.
	entropy, err := hex.DecodeString(goldenEntropyBlobHex)
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds, entropy)
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
		enc, _, err := adaptiveFresh(c, as, tt)
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
		want, err := decodeFresh(c, enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeFresh(c, back)
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
// panic or unbounded allocation, and that every accepted blob re-marshals
// to exactly its input bytes. The in-place forms must agree with the
// allocating ones: parsing into a dirty container that last held another
// technique accepts and rejects exactly what a fresh parse does and yields
// the same stash, and AppendBinary(prefix) is prefix + MarshalBinary().
// Seeds are valid serialized stashes (sealed and unsealed, every technique)
// so mutations explore deep payload and checksum handling, not just header
// rejection.
func FuzzDecodeEncodedStash(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	codec := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalStash(data)
		dirty := dirtyContainer(t, seeds, data)
		if errInto := UnmarshalStashInto(dirty, data); (errInto == nil) != (err == nil) {
			t.Fatalf("fresh parse error %v, parse into a dirty container %v", err, errInto)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptStash) && !errors.Is(err, ErrNoTechnique) {
				t.Fatalf("unmarshal error %v is not a typed stash error", err)
			}
			return
		}
		assertStashesIdentical(t, e, dirty, "parse into a dirty container")
		if e.Sealed() != dirty.Sealed() || e.Bytes() != dirty.Bytes() {
			t.Fatalf("dirty-container parse: sealed %v bytes %d, fresh %v %d",
				dirty.Sealed(), dirty.Bytes(), e.Sealed(), e.Bytes())
		}
		// The wire is canonical: an accepted blob re-marshals to itself.
		if b, err := e.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of accepted stash failed: %v", err)
		} else if !bytes.Equal(b, data) {
			t.Fatalf("accepted %d bytes re-marshal to %d different bytes", len(data), len(b))
		}
		prefix := append(make([]byte, 0, 8), "pfx"...)
		if b, err := dirty.AppendBinary(prefix); err != nil || !bytes.Equal(b, append([]byte("pfx"), data...)) {
			t.Fatalf("AppendBinary(prefix) = %d bytes, %v; want the prefix and the %d input bytes", len(b), err, len(data))
		}
		if err := codec.Verify(e); err != nil {
			if !errors.Is(err, ErrCorruptStash) {
				t.Fatalf("verify error %v does not wrap ErrCorruptStash", err)
			}
			return
		}
		dec, err := decodeFresh(codec, e)
		if err != nil {
			if !errors.Is(err, ErrCorruptStash) && !errors.Is(err, ErrShapeMismatch) && !errors.Is(err, ErrNoTechnique) {
				t.Fatalf("decode error %v is not a typed stash error", err)
			}
			return
		}
		if want := e.Shape.NumElements(); len(dec.Data) != want {
			t.Fatalf("decode returned %d elements for shape %v", len(dec.Data), e.Shape)
		}
	})
}

// dirtyContainer parses the first seed of another technique than data's
// into a fresh container: what UnmarshalStashInto must overwrite.
func dirtyContainer(t *testing.T, seeds [][]byte, data []byte) *EncodedStash {
	t.Helper()
	var tech uint32 = 1 << 31 // unknown tag: any seed will do
	if len(data) >= 8 {
		tech = binary.LittleEndian.Uint32(data[4:8])
	}
	for _, seed := range seeds {
		if binary.LittleEndian.Uint32(seed[4:8]) != tech {
			e, err := UnmarshalStash(seed)
			if err != nil {
				t.Fatalf("seed does not parse: %v", err)
			}
			return e
		}
	}
	t.Fatal("every seed has the input's technique")
	return nil
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
			_, _ = decodeFresh(codec, e)
		}
	}
}

// TestUnmarshalRejectsOversizedClaims checks that headers no writer produces
// are rejected: a count claim past the allocation caps (before any large
// allocation), a seal word other than 0 or 1, and the magics of the retired
// containers whose header layout matched the current one: the first, and
// "GST3", whose checksums left the payload's header words out.
func TestUnmarshalRejectsOversizedClaims(t *testing.T) {
	c := Codec{Pool: parallel.NewPool(1)}
	tt := tensor.New(64)
	enc, err := encodeFresh(c, &Assignment{Tech: DPR, Format: floatenc.FP16}, tt)
	if err != nil {
		t.Fatal(err)
	}
	c.Seal(enc)
	blob, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStash(blob); err != nil {
		t.Fatalf("unmodified blob rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		// The packed value count sits at offset 28: magic 4 + tech/seal/chunk
		// 12 + rank 4 + one dim 4 + format 4.
		{"packed count 2^31", func(b []byte) { b[28], b[29], b[30], b[31] = 0, 0, 0, 0x80 }},
		{"seal word 2", func(b []byte) { b[8] = 2 }},
		{"GSTS magic", func(b []byte) { copy(b, "GSTS") }},
		{"GST3 magic", func(b []byte) { copy(b, "GST3") }},
	} {
		b := slices.Clone(blob)
		tc.mutate(b)
		if _, err := UnmarshalStash(b); !errors.Is(err, ErrCorruptStash) {
			t.Errorf("%s: error = %v, want ErrCorruptStash", tc.name, err)
		}
	}
}
