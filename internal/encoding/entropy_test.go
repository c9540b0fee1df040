package encoding

import (
	"math"
	"sync"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/tensor"
)

// chunkChecksums is the allocate-fresh form of chunkChecksumsInto the
// white-box attribution tests call.
func (cdc Codec) chunkChecksums(e *EncodedStash) (full uint32, chunks []uint32, ok bool) {
	return cdc.chunkChecksumsInto(nil, e)
}

// TestEntropyPooledZeroAllocs pins the Entropy stash path's allocation
// contract, the counterpart of TestZVCPooledEncodeZeroAllocs: with a serial
// codec, once a container is warm, re-encoding into it, sealing it,
// verifying it and decoding it into an existing tensor each allocate
// nothing — block offsets, code tables and staging all live in the
// payload's own slices or on the stack. Several chunks, the last one
// ragged, so the multi-block layout is what is measured.
func TestEntropyPooledZeroAllocs(t *testing.T) {
	rng := tensor.NewRNG(12)
	const n = 5*768 + 100
	tt := tensor.New(n)
	copy(tt.Data, randStash(rng, n, 0.6))
	out := tensor.New(n)
	for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP10} {
		c := Codec{Pool: parallel.NewPool(1), ChunkElems: 2 * 768}
		as := &Assignment{Tech: Entropy, Format: f}
		e := &EncodedStash{}
		steps := []struct {
			name string
			run  func() error
		}{
			{"re-encode", func() error { return c.EncodeStashInto(e, as, tt) }},
			{"seal", func() error { c.Seal(e); return nil }},
			{"verify", func() error { return c.Verify(e) }},
			{"decode", func() error { return c.DecodeInto(out, e) }},
		}
		for _, s := range steps {
			if err := s.run(); err != nil { // warm: sizes the container
				t.Fatalf("%s: warm %s: %v", f, s.name, err)
			}
			if race.Enabled {
				continue // sync.Pool drops objects at random under the race detector
			}
			if a := testing.AllocsPerRun(10, func() {
				if err := s.run(); err != nil {
					t.Fatalf("%s: %s: %v", f, s.name, err)
				}
			}); a != 0 {
				t.Errorf("%s: %s allocs %v per run, want 0", f, s.name, a)
			}
		}
		if e.NumChunks() != 3 || !e.Sealed() {
			t.Fatalf("%s: %d chunks, sealed %v; want 3 sealed chunks", f, e.NumChunks(), e.Sealed())
		}
		for i, v := range tt.Data {
			if want := f.Quantize(v); math.Float32bits(out.Data[i]) != math.Float32bits(want) {
				t.Fatalf("%s: decoded[%d] = %v, want %v", f, i, out.Data[i], want)
			}
		}
	}
}

// TestEntropyConcurrentDecodeOfOneStash pins that decoding reads the
// payload and writes nothing but its destination: many goroutines verify
// and decode the same sealed stash at once (the -race workload), on a
// shared parallel pool, and all get the same bytes.
func TestEntropyConcurrentDecodeOfOneStash(t *testing.T) {
	rng := tensor.NewRNG(13)
	const n = 7*768 + 5
	tt := tensor.New(n)
	copy(tt.Data, randStash(rng, n, 0.7))
	c := Codec{Pool: parallel.NewPool(3), ChunkElems: 768}
	e, err := c.EncodeStash(&Assignment{Tech: Entropy, Format: floatenc.FP16}, tt)
	if err != nil {
		t.Fatal(err)
	}
	c.Seal(e)
	want, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.New(n)
			for iter := 0; iter < 5; iter++ {
				if err := c.DecodeInto(out, e); err != nil {
					t.Error(err)
					return
				}
				for i := range out.Data {
					if math.Float32bits(out.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Errorf("decoded[%d] = %v, want %v", i, out.Data[i], want.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
