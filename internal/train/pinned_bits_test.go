package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
)

// pointwiseNet is a small all-1x1-convolution network (the benchmark's
// StashNet shape in miniature), so the pointwise conv kernels sit on a
// pinned training path next to the 3x3 ones.
func pointwiseNet(mb, classes int) *graph.Graph {
	g := graph.New()
	last := g.MustAdd("input", layers.NewInput(mb, 4, 16, 16))
	for i, name := range []string{"1", "2", "3"} {
		last = g.MustAdd("conv"+name, layers.NewConv2D(8, 1, 1, 0), last)
		last = g.MustAdd("relu"+name, layers.NewReLU(), last)
		if i > 0 {
			last = g.MustAdd("pool"+name, layers.NewMaxPool(2, 2, 0), last)
		}
	}
	last = g.MustAdd("fc1", layers.NewFC(16), last)
	last = g.MustAdd("relu4", layers.NewReLU(), last)
	last = g.MustAdd("fc2", layers.NewFC(classes), last)
	g.MustAdd("loss", layers.NewSoftmaxXent(), last)
	return g
}

// TestTrainingBitsPinned pins the bits training produces across commits.
// The determinism walls compare two runs of the same binary, so a kernel
// rewrite that reorders a float32 accumulation the same way in every
// replica passes all of them; this test does not. The constants are
// FNV-1a hashes (the benchmark's weightsHash recipe: little-endian bytes
// through 64-bit FNV-1a) over every parameter's bits after 30 steps and
// over the 30 per-step loss bits, captured before the row-sweep convolution
// and pooling kernels replaced the per-element loops. A change that moves them on purpose — a new
// initializer, a different optimizer — re-captures them and says so; a
// kernel optimization must not.
func TestTrainingBitsPinned(t *testing.T) {
	const steps, classes, seed = 30, 8, 1
	nets := []struct {
		name           string
		g              func() *graph.Graph
		channels, size int
	}{
		{"tinyvgg", func() *graph.Graph { return networks.TinyVGG(2, classes) }, 3, 32},
		{"tinycnn", func() *graph.Graph { return networks.TinyCNN(4, classes) }, 3, 16},
		{"pointwise", func() *graph.Graph { return pointwiseNet(4, classes) }, 4, 16},
	}
	want := map[string][2]uint64{
		"tinyvgg/plain":   {0x483af6960f6b945f, 0x51ce8a9e315fc89a},
		"tinyvgg/fp16":    {0xd297cb19e8c9788d, 0xafd60d518b0a8025},
		"tinycnn/plain":   {0x23d30c79da546816, 0x1937cc652470fbb0},
		"tinycnn/fp16":    {0x5c1c09f8dcf82392, 0x76f597d7673a5af4},
		"pointwise/plain": {0x4420155468d43363, 0xd0d88fcb9763a5b0},
		"pointwise/fp16":  {0xfd242d9e781f1def, 0x15bb4db918be41a6},
	}
	for _, n := range nets {
		for _, scheme := range []string{"plain", "fp16"} {
			name := n.name + "/" + scheme
			t.Run(name, func(t *testing.T) {
				g := n.g()
				opts := Options{Seed: seed}
				if scheme == "fp16" {
					opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
				}
				e := NewExecutor(g, opts)
				d := NewDataset(classes, n.channels, n.size, 0.4, seed+1)
				mb := g.InputNodes()[0].OutShape[0]
				lossHash, weightHash := fnv.New64a(), fnv.New64a()
				var last float64
				for i := 0; i < steps; i++ {
					x, labels := d.Batch(mb)
					last, _ = e.Step(x, labels, 0.01)
					lossHash.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(last)))
				}
				if last == 0 || math.IsNaN(last) {
					t.Fatalf("degenerate run (final loss %v) pins nothing", last)
				}
				for _, node := range g.Nodes {
					for _, p := range e.Params(node) {
						for _, v := range p.Data {
							weightHash.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
						}
					}
				}
				got := [2]uint64{weightHash.Sum64(), lossHash.Sum64()}
				if got != want[name] {
					t.Fatalf("training bits moved: weights %#016x losses %#016x, pinned %#016x %#016x (final loss %v)",
						got[0], got[1], want[name][0], want[name][1], last)
				}
			})
		}
	}
}
