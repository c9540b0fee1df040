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

// bnPinNet puts a BatchNorm on each kind of stash it reads: bn1 reads a
// convolution's output (a DPR stash under an encoding) and bn2 a ReLU's
// (a ZVC stash), one of them at an odd spatial size.
func bnPinNet(mb, classes int) *graph.Graph {
	g := graph.New()
	last := g.MustAdd("input", layers.NewInput(mb, 3, 15, 15))
	last = g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), last)
	last = g.MustAdd("bn1", layers.NewBatchNorm(), last)
	last = g.MustAdd("relu1", layers.NewReLU(), last)
	last = g.MustAdd("bn2", layers.NewBatchNorm(), last)
	last = g.MustAdd("conv2", layers.NewConv2D(8, 1, 1, 0), last)
	last = g.MustAdd("relu2", layers.NewReLU(), last)
	last = g.MustAdd("pool2", layers.NewMaxPool(3, 3, 0), last)
	last = g.MustAdd("fc1", layers.NewFC(classes), last)
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
// kernel optimization must not. The "/group" rows train a ReplicaGroup of
// two replicas over four shards: the replica walls compare replica counts
// with each other, so an update bug that moves every count alike passes
// them; these rows do not.
func TestTrainingBitsPinned(t *testing.T) {
	const classes = 8
	nets := []struct {
		name           string
		g              func() *graph.Graph
		channels, size int
	}{
		{"tinyvgg", func() *graph.Graph { return networks.TinyVGG(2, classes) }, 3, 32},
		{"tinycnn", func() *graph.Graph { return networks.TinyCNN(4, classes) }, 3, 16},
		{"pointwise", func() *graph.Graph { return pointwiseNet(4, classes) }, 4, 16},
		{"bn", func() *graph.Graph { return bnPinNet(4, classes) }, 3, 15},
	}
	want := map[string][2]uint64{
		"tinyvgg/plain":       {0x483af6960f6b945f, 0x51ce8a9e315fc89a},
		"tinyvgg/fp16":        {0xd297cb19e8c9788d, 0xafd60d518b0a8025},
		"tinycnn/plain":       {0x23d30c79da546816, 0x1937cc652470fbb0},
		"tinycnn/fp16":        {0x5c1c09f8dcf82392, 0x76f597d7673a5af4},
		"pointwise/plain":     {0x4420155468d43363, 0xd0d88fcb9763a5b0},
		"pointwise/fp16":      {0xfd242d9e781f1def, 0x15bb4db918be41a6},
		"bn/plain":            {0x888d9e7a4e775a05, 0xc00d15cdf0e22b07},
		"bn/fp16":             {0xa9fbee03466c1d08, 0x94ae47ff31c4871e},
		"tinycnn/plain/group": {0xab35c64240cf963d, 0x4b17499be5c3e4f6},
		"tinycnn/fp16/group":  {0xb24cf2d081b5a0bb, 0xe6e4aa7d6a75d015},
		"bn/plain/group":      {0x168fc2040f51aa0f, 0x888a9ca4699313d4},
		"bn/fp16/group":       {0xc607e7845cae791e, 0x852583ba9f70454c},
	}
	for _, n := range nets {
		for _, scheme := range []string{"plain", "fp16"} {
			for _, group := range []bool{false, true} {
				name := n.name + "/" + scheme
				if group {
					name += "/group"
				}
				if _, ok := want[name]; !ok {
					continue
				}
				t.Run(name, func(t *testing.T) {
					pinTrainingBits(t, n.g(), scheme, group, n.channels, n.size, want[name])
				})
			}
		}
	}
}

// pinTrainingBits trains g for 30 steps, on one executor or on a group of
// two replicas over four shards, and compares the weight and loss hashes
// with want.
func pinTrainingBits(t *testing.T, g *graph.Graph, scheme string, group bool, channels, size int, want [2]uint64) {
	const steps, classes, seed = 30, 8, 1
	opts := Options{Seed: seed}
	if scheme == "fp16" {
		opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	}
	var en Engine = NewExecutor(g, opts)
	if group {
		en = NewReplicaGroup(g, opts, ReplicaConfig{Replicas: 2, Shards: 4})
	}
	defer en.Close()
	d := NewDataset(classes, channels, size, 0.4, seed+1)
	lossHash, weightHash := fnv.New64a(), fnv.New64a()
	var last float64
	for i := 0; i < steps; i++ {
		x, labels := d.Batch(en.Batch())
		var err error
		if last, _, err = en.TryStep(x, labels, 0.01); err != nil {
			t.Fatal(err)
		}
		lossHash.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(last)))
	}
	if last == 0 || math.IsNaN(last) {
		t.Fatalf("degenerate run (final loss %v) pins nothing", last)
	}
	e := en.Executors()[0]
	for _, node := range g.Nodes {
		for _, p := range e.Params(node) {
			for _, v := range p.Data {
				weightHash.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
			}
		}
	}
	got := [2]uint64{weightHash.Sum64(), lossHash.Sum64()}
	if got != want {
		t.Fatalf("training bits moved: weights %#016x losses %#016x, pinned %#016x %#016x (final loss %v)",
			got[0], got[1], want[0], want[1], last)
	}
}
