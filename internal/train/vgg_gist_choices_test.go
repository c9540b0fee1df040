package train

import (
	"hash/fnv"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/networks"
)

// TestVGGGistChoicesPinned pins the runtime verdicts of the cost guards on
// the benchmark's vgg_gist configuration — TinyVGG at minibatch 2 under
// LossyLossless(FP16), pooled, on the benchmark's dataset — for seeds 1–3:
// the technique every stash is held in after every step, and how many
// stash encodes fell back. The guards compare held bytes with the dense
// DPR alternative; these verdicts show that holding SSDC's and ZVC's values
// packed left every one of them where it was. The constants were captured
// on a checkout of the commit before the packed value arrays, where the
// guards credited the packed width to FP32-held values. Never re-capture
// them for a refactor.
func TestVGGGistChoicesPinned(t *testing.T) {
	const steps, classes = 25, 8
	want := map[uint64]struct {
		choices   uint64
		fallbacks int64
	}{
		1: {0xc79189a15e791c73, 38},
		2: {0x69a1244b147f31ec, 25},
		3: {0x2b08b50bf04b1f7f, 40},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g := networks.TinyVGG(2, classes)
		e := NewExecutor(g, Options{
			Seed:      seed,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
			Pool:      bufpool.New(),
		})
		d := NewDataset(classes, 3, 32, 0.4, seed+1)
		h := fnv.New64a()
		for i := 0; i < steps; i++ {
			x, labels := d.Batch(2)
			e.Step(x, labels, 0.01)
			for id := range e.encSlots {
				h.Write([]byte{byte(id), byte(e.encSlots[id].Tech)})
			}
		}
		e.Close()
		got := want[seed]
		got.choices, got.fallbacks = h.Sum64(), e.Robust.SSDCFallbacks
		if got != want[seed] {
			t.Errorf("seed %d: held techniques %#016x after %d fallbacks, pinned %#016x after %d",
				seed, got.choices, got.fallbacks, want[seed].choices, want[seed].fallbacks)
		}
	}
}
