package gist_test

import (
	"fmt"

	"gist"
	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/experiments"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/train"
)

// ExampleBuild_assignments plans a VGG-flavoured block under the full Gist
// configuration and prints the container each stashed feature map gets:
// Binarize for the ReLU that only a pool reads, SSDC for the sparse maps a
// convolution reads, DPR for the rest.
func ExampleBuild_assignments() {
	g := gist.NewGraph()
	in := g.MustAdd("input", layers.NewInput(16, 3, 32, 32))
	c1 := g.MustAdd("conv1", layers.NewConv2D(16, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(16, 3, 1, 1), r1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r2)
	c3 := g.MustAdd("conv3", layers.NewConv2D(32, 3, 1, 1), p1)
	r3 := g.MustAdd("relu3", layers.NewReLU(), c3)
	fc := g.MustAdd("fc", layers.NewFC(4), r3)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)

	base := gist.MustBuild(gist.Request{Graph: g})
	plan := gist.MustBuild(gist.Request{Graph: g, Encodings: gist.LossyLossless(gist.FP8)})
	fmt.Printf("MFR %.2fx\n", plan.MFR(base))
	for _, n := range g.Nodes {
		if as := plan.Analysis.ByNode[n.ID]; as != nil {
			fmt.Printf("%-6s %-8v %5.1fx\n", n.Name, as.Tech, as.CompressionRatio())
		}
	}
	// Output:
	// MFR 1.37x
	// input  DPR        4.0x
	// relu1  SSDC       6.5x
	// relu2  Binarize  32.0x
	// pool1  SSDC       2.6x
	// relu3  DPR        4.0x
	// loss   DPR        4.0x
}

// Example_delayedPrecisionReduction is the paper's accuracy argument in
// one step: Gist-DPR packs only the stashed copies, so the forward pass —
// and the first step's loss — is bit-identical to FP32's, while All-FP8
// quantizes every layer output and the error compounds with depth.
func Example_delayedPrecisionReduction() {
	firstLoss := func(forward, dpr floatenc.Format) float64 {
		g := gist.TinyCNN(8, 4)
		e := train.NewExecutor(g, train.Options{Seed: 7, ForwardFormat: forward,
			Encodings: encoding.Analyze(g, encoding.Config{DPR: dpr})})
		defer e.Close()
		x, labels := train.NewDataset(4, 3, 16, 0.4, 100).Batch(8)
		loss, _ := e.Step(x, labels, 0.05)
		return loss
	}
	fp32 := firstLoss(floatenc.FP32, floatenc.FP32)
	fmt.Println("Gist-DPR-FP8 forward is FP32's:", firstLoss(floatenc.FP32, floatenc.FP8) == fp32)
	fmt.Println("All-FP8 forward is FP32's:", firstLoss(floatenc.FP8, floatenc.FP32) == fp32)
	rows := experiments.ForwardErrorByDepth(12, 7)
	fmt.Println("All-FP8 error grows with depth:", rows[len(rows)-1].AllFP8 > rows[0].AllFP8)
	// Output:
	// Gist-DPR-FP8 forward is FP32's: true
	// All-FP8 forward is FP32's: false
	// All-FP8 error grows with depth: true
}

// Example_resNetMinibatch is Figure 16's mechanism on ResNet-509: on a
// 12 GB device Gist's smaller footprint admits a larger minibatch, and the
// better utilization there is a throughput gain.
func Example_resNetMinibatch() {
	d := costmodel.TitanX()
	build := func(mb int) *graph.Graph { return gist.ResNetCIFAR(mb, 509) }
	baseMB := gist.LargestFittingMinibatch(d, build, gist.Config{}, 4096)
	gistMB := gist.LargestFittingMinibatch(d, build, gist.LossyLossless(gist.FP10), 4096)
	fmt.Printf("minibatch %d -> %d, speedup %.0f%%\n", baseMB, gistMB, 100*(costmodel.ThroughputSpeedup(baseMB, gistMB)-1))
	// Output: minibatch 329 -> 1255, speedup 10%
}

// Example_vgg16Footprint plans VGG16 at ImageNet shapes and minibatch 64,
// the workload that barely fits a 12 GB Titan X, and prints what each Gist
// configuration leaves of the stashed and immediate feature maps.
func Example_vgg16Footprint() {
	g := gist.VGG16(64)
	full := gist.MustBuild(gist.Request{Graph: g, IncludeWeights: true, IncludeWorkspace: true})
	fmt.Printf("full footprint %.2f GB\n", float64(full.Static.TotalBytes)/1e9)
	base := gist.MustBuild(gist.Request{Graph: g})
	for _, c := range []struct {
		name string
		cfg  gist.Config
	}{
		{"binarize", gist.Config{Binarize: true}},
		{"ssdc", gist.Config{SSDC: true, FCIsConvLike: true}},
		{"lossless", gist.Lossless()},
		{"lossy-fp16", gist.LossyLossless(gist.FP16)},
	} {
		p := gist.MustBuild(gist.Request{Graph: g, Encodings: c.cfg})
		fmt.Printf("%-10s %5.2f GB  MFR %.2fx\n", c.name, float64(p.TotalBytes)/1e9, p.MFR(base))
	}
	// Output:
	// full footprint 6.59 GB
	// binarize    4.08 GB  MFR 1.36x
	// ssdc        4.36 GB  MFR 1.27x
	// lossless    3.77 GB  MFR 1.47x
	// lossy-fp16  3.40 GB  MFR 1.63x
}
