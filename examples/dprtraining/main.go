// dprtraining demonstrates the paper's central accuracy result on a real
// (scaled) training run: delayed precision reduction at FP8 tracks the
// FP32 baseline step for step, because the forward pass never sees the
// quantization — while immediate ("All-FP8") reduction injects error into
// every layer, compounding with depth.
package main

import (
	"fmt"

	"gist/internal/encoding"
	"gist/internal/experiments"
	"gist/internal/floatenc"
	"gist/internal/networks"
	"gist/internal/train"
)

func main() {
	// forward quantizes every layer output (All-*); dpr packs only the
	// stashed copies (Gist-DPR), so the forward pass stays exact.
	run := func(name string, forward, dpr floatenc.Format) []train.Record {
		g := networks.TinyCNN(8, 4)
		e := train.NewExecutor(g, train.Options{Seed: 7, ForwardFormat: forward,
			Encodings: encoding.Analyze(g, encoding.Config{DPR: dpr})})
		d := train.NewDataset(4, 3, 16, 0.4, 100)
		recs := train.Run(e, d, train.RunConfig{
			Minibatch: 8, Steps: 200, LR: 0.05, ProbeEvery: 40,
		})
		fmt.Printf("%-14s", name)
		for _, r := range recs {
			fmt.Printf("  %5.1f%%", 100*r.AccuracyLoss)
		}
		fmt.Println()
		return recs
	}

	fmt.Println("training accuracy loss at minibatch 40/80/120/160/200:")
	run("FP32", floatenc.FP32, floatenc.FP32)
	run("Gist-DPR-FP8", floatenc.FP32, floatenc.FP8)
	run("All-FP8", floatenc.FP8, floatenc.FP32)

	fmt.Println("\nwhy immediate reduction fails at scale — forward error by depth:")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "depth", "All-FP16", "All-FP10", "All-FP8", "Gist-DPR")
	for _, row := range experiments.ForwardErrorByDepth(12, 7) {
		if row.Depth%3 != 0 && row.Depth != 1 {
			continue
		}
		fmt.Printf("conv %-3d %9.3f%% %9.3f%% %9.3f%% %9.3f%%\n",
			row.Depth, 100*row.AllFP16, 100*row.AllFP10, 100*row.AllFP8, 0.0)
	}
	fmt.Println("\n(Gist-DPR's forward pass is bit-identical to FP32: the encoded copy")
	fmt.Println(" exists only between a feature map's forward and backward uses)")
}
