package experiments

// Extension experiment beyond the paper's figures: the CDMA
// compressed-transfer follow-up to vDNN (related work), priced by the same
// swap model that backs Figure 15.

import (
	"gist/internal/core"
	"gist/internal/costmodel"
	"gist/internal/graph"
	"gist/internal/swap"
)

// ExtCDMA extends Figure 15 with the CDMA baseline: vDNN's schedule with
// sparsity-compressed PCIe transfers.
func ExtCDMA(mb int) *Result {
	d := costmodel.TitanX()
	r := &Result{ID: "cdma", Title: "CDMA (compressed vDNN transfers) vs vDNN vs Gist"}
	r.add("%-10s %8s %8s %8s", "network", "vDNN", "CDMA", "Gist")
	for _, net := range suite(mb) {
		tl := graph.BuildTimeline(net.G)
		base := d.StepTime(net.G)
		vdnn := costmodel.Overhead(base, swap.VDNNStepTime(d, net.G, tl))
		cdma := costmodel.Overhead(base, swap.CDMAStepTime(d, net.G, tl, nil))
		gist := costmodel.Overhead(base, core.MustBuild(core.Request{
			Graph: net.G, Encodings: lossyCfg(net.Name),
		}).StepTime(d))
		r.set(net.Name+"/vdnn", vdnn)
		r.set(net.Name+"/cdma", cdma)
		r.set(net.Name+"/gist", gist)
		r.add("%-10s %7.1f%% %7.1f%% %7.1f%%", net.Name, 100*vdnn, 100*cdma, 100*gist)
	}
	r.add("(compression shrinks the PCIe bottleneck but cannot remove it;")
	r.add(" Gist keeps the data on the device)")
	return r
}
