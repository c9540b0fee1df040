package experiments

// Performance experiments: Figures 9, 11, 15 and 16, all driven by the
// Titan X roofline cost model and the PCIe swap simulations.

import (
	"fmt"

	"gist/internal/core"
	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/swap"
)

// Fig9 reproduces Gist's end-to-end performance overhead: lossless alone
// and lossless+lossy, as a percentage of the baseline minibatch time.
func Fig9(mb int) *Result {
	d := costmodel.TitanX()
	r := &Result{ID: "fig9", Title: "Gist performance overhead vs CNTK baseline (modeled)"}
	r.add("%-10s %10s %16s", "network", "lossless", "lossless+lossy")
	var sumLL, sumLY float64
	n := 0
	for _, net := range suite(mb) {
		base := d.StepTime(net.G)
		ll := costmodel.Overhead(base, d.GistStepTime(net.G, encoding.Analyze(net.G, losslessCfg())))
		ly := costmodel.Overhead(base, d.GistStepTime(net.G, encoding.Analyze(net.G, lossyCfg(net.Name))))
		r.set(net.Name+"/lossless", ll)
		r.set(net.Name+"/lossy", ly)
		r.add("%-10s %9.1f%% %15.1f%%", net.Name, 100*ll, 100*ly)
		sumLL += ll
		sumLY += ly
		n++
	}
	r.set("average/lossless", sumLL/float64(n))
	r.set("average/lossy", sumLY/float64(n))
	r.add("%-10s %9.1f%% %15.1f%%", "average", 100*sumLL/float64(n), 100*sumLY/float64(n))
	r.add("(paper: ~3%% lossless, ~4%% combined, max 7%% for VGG16)")
	return r
}

// Fig11 breaks the lossless overhead down per encoding: Binarize alone
// (which can be a small win — it reduces backward-pass bandwidth) and SSDC
// alone (which pays CSR conversion passes).
func Fig11(mb int) *Result {
	d := costmodel.TitanX()
	r := &Result{ID: "fig11", Title: "Per-encoding performance overhead (modeled)"}
	r.add("%-10s %10s %8s %8s", "network", "Binarize", "SSDC", "both")
	for _, net := range suite(mb) {
		base := d.StepTime(net.G)
		bz := costmodel.Overhead(base, d.GistStepTime(net.G,
			encoding.Analyze(net.G, encoding.Config{Binarize: true})))
		sc := costmodel.Overhead(base, d.GistStepTime(net.G,
			encoding.Analyze(net.G, encoding.Config{SSDC: true, FCIsConvLike: true})))
		both := costmodel.Overhead(base, d.GistStepTime(net.G,
			encoding.Analyze(net.G, encoding.Config{Binarize: true, SSDC: true, FCIsConvLike: true})))
		r.set(net.Name+"/binarize", bz)
		r.set(net.Name+"/ssdc", sc)
		r.set(net.Name+"/both", both)
		r.add("%-10s %9.1f%% %7.1f%% %7.1f%%", net.Name, 100*bz, 100*sc, 100*both)
	}
	r.add("(Binarize is a small win: the 1-bit mask cuts ReLU backward bandwidth)")
	return r
}

// Fig15 reproduces the comparison with swap-based prior work: naive
// synchronous swapping, vDNN with prefetching, and Gist.
func Fig15(mb int) *Result {
	d := costmodel.TitanX()
	r := &Result{ID: "fig15", Title: "Overhead vs prior work: naive swap, vDNN, Gist (modeled)"}
	r.add("%-10s %8s %8s %8s", "network", "naive", "vDNN", "Gist")
	var sums [3]float64
	n := 0
	for _, net := range suite(mb) {
		naive, vdnn := swap.Overheads(d, net.G)
		base := d.StepTime(net.G)
		gist := costmodel.Overhead(base, d.GistStepTime(net.G,
			encoding.Analyze(net.G, lossyCfg(net.Name))))
		r.set(net.Name+"/naive", naive)
		r.set(net.Name+"/vdnn", vdnn)
		r.set(net.Name+"/gist", gist)
		r.add("%-10s %7.0f%% %7.0f%% %7.1f%%", net.Name, 100*naive, 100*vdnn, 100*gist)
		sums[0] += naive
		sums[1] += vdnn
		sums[2] += gist
		n++
	}
	r.set("average/naive", sums[0]/float64(n))
	r.set("average/vdnn", sums[1]/float64(n))
	r.set("average/gist", sums[2]/float64(n))
	r.add("%-10s %7.0f%% %7.0f%% %7.1f%%", "average",
		100*sums[0]/float64(n), 100*sums[1]/float64(n), 100*sums[2]/float64(n))
	r.add("(paper: naive ~30%% avg; vDNN ~15%% avg, up to 27%%; Gist ~4%%)")
	return r
}

// Fig16 reproduces the deep-ResNet minibatch study: for each depth, find
// the largest minibatch that fits the 12 GB device with and without Gist,
// and report the training speedup larger minibatches buy through better
// GPU utilization.
func Fig16() *Result {
	d := costmodel.TitanX()
	r := &Result{ID: "fig16", Title: "Speedup from Gist-enabled larger minibatches on deep ResNets"}
	r.add("%-12s %8s %8s %9s", "network", "mb-base", "mb-gist", "speedup")
	cfg := lossyCfg("ResNet")
	for _, depth := range []int{509, 851, 1202} {
		depth := depth
		build := func(mb int) *graph.Graph { return networks.ResNetCIFAR(mb, depth) }
		baseMB := core.LargestFittingMinibatch(d, build, encoding.Config{}, 2048)
		gistMB := core.LargestFittingMinibatch(d, build, cfg, 2048)
		speedup := costmodel.ThroughputSpeedup(baseMB, gistMB)
		name := fmt.Sprintf("ResNet-%d", depth)
		r.set(name+"/mb-base", float64(baseMB))
		r.set(name+"/mb-gist", float64(gistMB))
		r.set(name+"/speedup", speedup)
		r.add("%-12s %8d %8d %8.0f%%", name, baseMB, gistMB, 100*(speedup-1))
	}
	r.add("(paper: 22%% speedup for ResNet-1202; deeper networks benefit more)")
	return r
}
