package gist_test

// Tests of the public facade: the API a downstream user sees.

import (
	"errors"
	"testing"

	"gist"
	"gist/internal/encoding"
	"gist/internal/layers"
)

func TestFacadeVGG16Planning(t *testing.T) {
	g := gist.VGG16(16)
	base, err := gist.Build(gist.Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	plan := gist.MustBuild(gist.Request{
		Graph:     g,
		Encodings: gist.LossyLossless(gist.FP16),
	})
	if mfr := plan.MFR(base); mfr <= 1.2 {
		t.Fatalf("facade MFR = %v", mfr)
	}
}

func TestFacadeGraphBuilding(t *testing.T) {
	g := gist.NewGraph()
	in := g.MustAdd("in", layers.NewInput(2, 3, 16, 16))
	c := g.MustAdd("conv", layers.NewConv2D(4, 3, 1, 1), in)
	r := g.MustAdd("relu", layers.NewReLU(), c)
	fc := g.MustAdd("fc", layers.NewFC(4), r)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	plan := gist.MustBuild(gist.Request{Graph: g, Encodings: gist.Lossless()})
	if plan.TotalBytes <= 0 {
		t.Fatal("empty plan")
	}
}

// TestFacadeSSDCIsPlanningOnly pins that SSDC prices stashes but holds
// none: a trainer given the paper's literal Binarize + SSDC configuration
// builds, and its first Step fails with an error wrapping ErrNoTechnique.
func TestFacadeSSDCIsPlanningOnly(t *testing.T) {
	tr := gist.NewTrainer(gist.TinyCNN(2, 4), gist.WithEncodings(gist.Config{Binarize: true, SSDC: true}))
	defer tr.Close()
	x, labels := gist.NewDataset(4, 3, 16, 0.4, 2).Batch(tr.Minibatch())
	if _, _, err := tr.Step(x, labels, 0.05); !errors.Is(err, encoding.ErrNoTechnique) {
		t.Fatalf("first Step: %v, want an error wrapping ErrNoTechnique", err)
	}
}

func TestFacadeDeviceAndMinibatchSearch(t *testing.T) {
	d := gist.TitanX()
	if d.MemoryBytes != 12<<30 {
		t.Fatal("TitanX should be 12 GB")
	}
	build := func(mb int) *gist.Graph { return gist.ResNetCIFAR(mb, 20) }
	base := gist.LargestFittingMinibatch(d, build, gist.Config{}, 8192)
	withGist := gist.LargestFittingMinibatch(d, build, gist.LossyLossless(gist.FP10), 8192)
	if withGist < base {
		t.Fatalf("gist minibatch %d below baseline %d", withGist, base)
	}
}

func TestFacadeAllocationModes(t *testing.T) {
	g := gist.AlexNet(8)
	static := gist.MustBuild(gist.Request{Graph: g, Allocation: gist.StaticAllocation})
	dynamic := gist.MustBuild(gist.Request{Graph: g, Allocation: gist.DynamicAllocation})
	if dynamic.TotalBytes > static.TotalBytes {
		t.Fatal("dynamic must not exceed static")
	}
}

func TestFacadeNetworkBuilders(t *testing.T) {
	for name, build := range map[string]func(int) *gist.Graph{
		"AlexNet": gist.AlexNet, "NiN": gist.NiN, "Overfeat": gist.Overfeat,
		"VGG16": gist.VGG16, "Inception": gist.Inception, "ResNet50": gist.ResNet50,
	} {
		g := build(2)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFacadeReplicas drives the data-parallel engine through the public
// options: a 2-replica, 4-shard trainer consumes 4x the graph batch per
// step and trains to the same bits as a 1-replica group at the same shard
// count.
func TestFacadeReplicas(t *testing.T) {
	trainOnce := func(replicas int) *gist.Trainer {
		tr := gist.NewTrainer(gist.TinyCNN(2, 4),
			gist.WithSeed(7),
			gist.WithEncodings(gist.LossyLossless(gist.FP16)),
			gist.WithPooling(gist.NewBufferPool()),
			gist.WithReplicas(replicas),
			gist.WithShards(4),
		)
		d := gist.NewDataset(4, 3, 16, 0.4, 2)
		for i := 0; i < 10; i++ {
			x, labels := d.Batch(tr.Minibatch())
			if _, _, err := tr.Step(x, labels, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	tr1 := trainOnce(1)
	defer tr1.Close()
	tr2 := trainOnce(2)
	defer tr2.Close()
	if got := tr2.Minibatch(); got != 8 {
		t.Fatalf("group minibatch = %d, want 8", got)
	}
	for _, n := range tr1.Executor().G.Nodes {
		p1 := tr1.Executor().Params(n)
		p2 := tr2.Executor().Params(tr2.Executor().G.Nodes[n.ID])
		for i := range p1 {
			for k := range p1[i].Data {
				if p1[i].Data[k] != p2[i].Data[k] {
					t.Fatalf("node %s param %d element %d: %g vs %g",
						n.Name, i, k, p1[i].Data[k], p2[i].Data[k])
				}
			}
		}
	}
}
