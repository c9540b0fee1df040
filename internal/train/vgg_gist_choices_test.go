package train

import (
	"hash/fnv"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
)

// TestVGGGistChoicesPinned pins the runtime verdicts of the cost guards,
// pooled, on the benchmark's dataset, for seeds 1–3: the technique every
// stash is held in after every step, and how many stash encodes fell back.
// The guards compare held bytes with the dense DPR alternative.
//
// The vgg_gist row — TinyVGG at minibatch 2 under LossyLossless(FP16) —
// showed that holding SSDC's and ZVC's values packed left every verdict
// where it was: it was captured on a checkout of the commit before the
// packed value arrays, where the guards credited the packed width to
// FP32-held values. It was re-captured when ZVC took SSDC's place in
// LossyLossless (38, 25 and 40 fallbacks before, with hashes
// 0xc79189a15e791c73, 0x69a1244b147f31ec and 0x2b08b50bf04b1f7f): a
// ReLU→Conv map that narrow CSR could not shrink below dense FP16 is held
// as ZVC. The adaptive rows run AdaptiveAll() over the FP16 base
// and, on TinyCNN, over the zero config (the job server's "none" encoding
// with technique "adaptive"); they were captured while the adaptive tier
// still ranked SSDC, ZVC and dense DPR by predicted bytes and walked a
// multi-hop fallback chain, and pin that ZVC with one hop to dense holds
// every stash the same way. Never re-capture them for a refactor.
func TestVGGGistChoicesPinned(t *testing.T) {
	const classes = 8
	fp16 := encoding.LossyLossless(floatenc.FP16)
	adaptive := func(c encoding.Config) encoding.Config {
		c.AdaptiveSet = encoding.AdaptiveAll()
		return c
	}
	type verdict struct {
		choices   uint64
		fallbacks int64
	}
	rows := []struct {
		name      string
		net       func(mb, classes int) *graph.Graph
		mb, steps int
		cfg       encoding.Config
		want      map[uint64]verdict
	}{
		{"vgg_gist", networks.TinyVGG, 2, 25, fp16, map[uint64]verdict{
			1: {0xa96e39f7ae3e9da7, 6},
			2: {0xa2a723491c2420b7, 0},
			3: {0xa2a723491c2420b7, 0},
		}},
		{"tinyvgg-adaptive-fp16", networks.TinyVGG, 2, 60, adaptive(fp16), map[uint64]verdict{
			1: {0x7467c33060722b9d, 6},
			2: {0xb0c0775ad6e7c52d, 0},
			3: {0xb0c0775ad6e7c52d, 0},
		}},
		{"tinycnn-adaptive-fp16", networks.TinyCNN, 4, 60, adaptive(fp16), map[uint64]verdict{
			1: {0xac0d7a548575d7a5, 0},
			2: {0xc75ab2a4cf0dadd9, 50},
			3: {0x29c3cf6c5d2b9bfc, 1},
		}},
		{"tinycnn-adaptive-only", networks.TinyCNN, 4, 60, adaptive(encoding.Config{}), map[uint64]verdict{
			1: {0x99af9016e1eec435, 0},
			2: {0x99af9016e1eec435, 0},
			3: {0x99af9016e1eec435, 0},
		}},
	}
	for _, r := range rows {
		for seed := uint64(1); seed <= 3; seed++ {
			g := r.net(r.mb, classes)
			e := NewExecutor(g, Options{
				Seed:      seed,
				Encodings: encoding.Analyze(g, r.cfg),
				Pool:      bufpool.New(),
			})
			size := g.Nodes[0].OutShape[2]
			d := NewDataset(classes, 3, size, 0.4, seed+1)
			h := fnv.New64a()
			for i := 0; i < r.steps; i++ {
				x, labels := d.Batch(r.mb)
				e.Step(x, labels, 0.01)
				for id := range e.encSlots {
					h.Write([]byte{byte(id), byte(e.encSlots[id].Tech)})
				}
			}
			e.Close()
			got := verdict{h.Sum64(), e.Robust.SparseFallbacks}
			if got != r.want[seed] {
				t.Errorf("%s seed %d: held techniques %#016x after %d fallbacks, pinned %#016x after %d",
					r.name, seed, got.choices, got.fallbacks, r.want[seed].choices, r.want[seed].fallbacks)
			}
		}
	}
}
