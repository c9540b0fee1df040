package encoding

import (
	"bytes"
	"runtime"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// TestCodecOpsAllocateNothing is the zero-allocation wall of the stash path:
// once a container, a decode target and a wire buffer are warm, every codec
// entry point — both encodes (the adaptive one with its dense fallback
// firing), Seal, Verify, DecodeInto — and both halves of the wire round trip
// allocate nothing, for every technique, at 1, 2 and 4 workers, with and
// without a sink, also right after a garbage collection. The tensor spans
// three chunks, so the multi-worker runs take the parallel dispatch, not
// just the caller's own loop.
func TestCodecOpsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := tensor.NewRNG(21)
	const n = 2*768 + 400 // three 768-element chunks, the last one ragged
	sparse, dense, out := tensor.New(n), tensor.New(n), tensor.New(n)
	copy(sparse.Data, randStash(rng, n, 0.8))
	copy(dense.Data, randStash(rng, n, 0))

	for _, w := range []int{1, 2, 4} {
		for _, tel := range []*telemetry.Sink{nil, telemetry.New()} {
			pool := parallel.NewPool(w)
			defer pool.Close()
			c := Codec{Pool: pool, ChunkElems: 768, Tel: tel}
			for _, as := range propAssignments() {
				e, back := &EncodedStash{}, &EncodedStash{}
				var wire []byte
				ops := []struct {
					name string
					run  func() error
				}{
					{"EncodeStashInto", func() error { return c.EncodeStashInto(e, as, sparse) }},
					{"Seal", func() error { c.Seal(e); return nil }},
					{"Verify", func() error { return c.Verify(e) }},
					{"DecodeInto", func() error { return c.DecodeInto(out, e) }},
					{"AppendBinary", func() (err error) { wire, err = e.AppendBinary(wire[:0]); return err }},
					{"UnmarshalStashInto", func() error { return UnmarshalStashInto(back, wire) }},
				}
				for _, op := range ops {
					assertNoAllocs(t, op.run, "w%d sink=%v %v/%s: %s", w, tel != nil, as.Tech, as.Format, op.name)
				}
				if e.NumChunks() != 3 || !back.Sealed() {
					t.Fatalf("%v/%s: %d chunks, round trip sealed %v", as.Tech, as.Format, e.NumChunks(), back.Sealed())
				}
				if b, _ := back.MarshalBinary(); !bytes.Equal(b, wire) {
					t.Fatalf("%v/%s: the in-place round trip changed the stash", as.Tech, as.Format)
				}
			}
			// Dense data defeats ZVC's cost guard: the one hop lands on DPR.
			as, e := &Assignment{Tech: ZVC, Format: floatenc.FP32}, &EncodedStash{}
			adaptive := func() error {
				fellBack, err := c.EncodeStashAdaptiveInto(e, as, dense)
				if err == nil && (!fellBack || e.Tech != DPR) {
					t.Fatalf("ZVC fallback ended at %v (fell back %v), want DPR", e.Tech, fellBack)
				}
				return err
			}
			assertNoAllocs(t, adaptive, "w%d sink=%v: EncodeStashAdaptiveInto ZVC falling back", w, tel != nil)
		}
	}
}

// assertNoAllocs runs op once to warm its buffers, then requires it to
// allocate nothing, both back to back and each time right after two
// garbage collections (a sync.Pool keeps its objects through one).
func assertNoAllocs(t *testing.T, op func() error, format string, args ...any) {
	t.Helper()
	if err := op(); err != nil {
		t.Fatalf(format+": warm: %v", append(args, err)...)
	}
	run := func() {
		if err := op(); err != nil {
			t.Fatalf(format+": %v", append(args, err)...)
		}
	}
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Errorf(format+": %v allocations per run, want 0", append(args, a)...)
	}
	if a := testing.AllocsPerRun(3, func() { runtime.GC(); runtime.GC(); run() }); a != 0 {
		t.Errorf(format+": %v allocations per run after a collection, want 0", append(args, a)...)
	}
}
