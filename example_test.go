package gist_test

import (
	"fmt"

	"gist"
	"gist/internal/layers"
)

// ExampleBuild plans a tiny network under the baseline and the full Gist
// configuration and prints the footprint ratio.
func ExampleBuild() {
	g := gist.NewGraph()
	in := g.MustAdd("input", layers.NewInput(8, 3, 32, 32))
	c1 := g.MustAdd("conv1", layers.NewConv2D(16, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	fc := g.MustAdd("fc", layers.NewFC(10), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)

	base := gist.MustBuild(gist.Request{Graph: g})
	plan := gist.MustBuild(gist.Request{
		Graph:     g,
		Encodings: gist.LossyLossless(gist.FP8),
	})
	fmt.Printf("MFR %.1fx\n", plan.MFR(base))
	// Output: MFR 2.4x
}

// ExampleLossless shows the technique assignment of the lossless
// configuration on a ReLU-Pool pair.
func ExampleLossless() {
	g := gist.NewGraph()
	in := g.MustAdd("input", layers.NewInput(4, 3, 16, 16))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	fc := g.MustAdd("fc", layers.NewFC(4), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)

	plan := gist.MustBuild(gist.Request{Graph: g, Encodings: gist.Lossless()})
	as := plan.Analysis.ByNode[r1.ID]
	fmt.Printf("%s: %v, %.0fx\n", r1.Name, as.Tech, as.CompressionRatio())
	// Output: relu1: Binarize, 32x
}

// ExampleLargestFittingMinibatch reproduces the Figure 16 mechanism on a
// small ResNet: Gist's smaller footprint admits a larger minibatch.
func ExampleLargestFittingMinibatch() {
	d := gist.TitanX()
	build := func(mb int) *gist.Graph { return gist.ResNetCIFAR(mb, 20) }
	base := gist.LargestFittingMinibatch(d, build, gist.Config{}, 1<<20)
	withGist := gist.LargestFittingMinibatch(d, build, gist.LossyLossless(gist.FP10), 1<<20)
	fmt.Println(withGist > base)
	// Output: true
}

// ExampleNewTrainer trains a tiny network for a few steps through the
// options facade and checks the loss went down.
func ExampleNewTrainer() {
	tr := gist.NewTrainer(gist.TinyCNN(8, 4),
		gist.WithEncodings(gist.LossyLossless(gist.FP16)),
		gist.WithSeed(7),
	)
	d := gist.NewDataset(4, 3, 16, 0.4, 2)
	x, labels := d.Batch(8)
	first, _, _ := tr.Step(x, labels, 0.05)
	var last float64
	for i := 0; i < 30; i++ {
		x, labels = d.Batch(8)
		last, _, _ = tr.Step(x, labels, 0.05)
	}
	fmt.Println(last < first)
	// Output: true
}

// ExampleWithPooling trains with the step arena on: the first step records
// where its buffers live and die, and from then on every step serves them
// from one slab laid out from that record instead of allocating —
// byte-identical results, near-zero allocation.
func ExampleWithPooling() {
	tr := gist.NewTrainer(gist.TinyCNN(8, 4),
		gist.WithEncodings(gist.LossyLossless(gist.FP16)),
		gist.WithPooling(gist.NewBufferPool()),
	)
	d := gist.NewDataset(4, 3, 16, 0.4, 2)
	var recorded gist.PoolStats
	for i := 0; i < 10; i++ {
		x, labels := d.Batch(8)
		if _, _, err := tr.Step(x, labels, 0.05); err != nil {
			fmt.Println(err)
			return
		}
		if i == 0 {
			recorded = tr.PoolStats()
		}
	}
	s := tr.PoolStats()
	fmt.Println(s.Hits > 0 && s.Misses == recorded.Misses && s.HeldBytes+s.InUseBytes <= s.PeakLiveBytes*5/4)
	// Output: true
}

// ExampleTrainer_Run composes telemetry with a training run and reads a
// robustness counter back from the sink.
func ExampleTrainer_Run() {
	tel := gist.NewTelemetry()
	tr := gist.NewTrainer(gist.TinyCNN(8, 4),
		gist.WithEncodings(gist.Lossless()),
		gist.WithIntegrity(),
		gist.WithTelemetry(tel),
	)
	recs := tr.Run(gist.NewDataset(4, 3, 16, 0.4, 2), gist.RunConfig{
		Steps: 20, Minibatch: 8, LR: 0.05, ProbeEvery: 10,
	})
	fmt.Println(len(recs) > 0 && tel.Counter("train.steps").Value() == 20)
	// Output: true
}
