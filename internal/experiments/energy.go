package experiments

// ExtEnergy quantifies the paper's energy argument against swapping: the
// data-movement energy a swap scheme spends per minibatch (every stash
// over PCIe, twice) versus what Gist's in-device encode/decode passes
// cost.

import (
	"gist/internal/costmodel"
	"gist/internal/encoding"
)

// ExtEnergy reports per-minibatch data-movement energy (millijoules) for
// swapping vs Gist on each network.
func ExtEnergy(mb int) *Result {
	r := &Result{ID: "energy", Title: "Data-movement energy per minibatch: swapping vs Gist (mJ)"}
	r.add("%-10s %12s %12s %8s", "network", "swap (mJ)", "gist (mJ)", "ratio")
	for _, net := range suite(mb) {
		swapE := costmodel.SwapEnergy(net.G)

		a := encoding.Analyze(net.G, lossyCfg(net.Name))
		var encBytes, denseBytes int64
		for _, as := range a.ByNode {
			encBytes += as.EncodedBytes
			denseBytes += as.Node.OutShape.Bytes()
		}
		for _, mapBytes := range a.PoolMaps {
			encBytes += mapBytes
		}
		gistE := costmodel.GistEnergy(encBytes, denseBytes)

		ratio := swapE / gistE
		r.set(net.Name+"/swap-mj", swapE*1e3)
		r.set(net.Name+"/gist-mj", gistE*1e3)
		r.set(net.Name+"/ratio", ratio)
		r.add("%-10s %12.1f %12.1f %7.1fx", net.Name, swapE*1e3, gistE*1e3, ratio)
	}
	r.add("(swapping pays PCIe + far-side DRAM for every stash, every minibatch;")
	r.add(" Gist's conversions are in-device DRAM passes — the paper's energy point)")
	return r
}
