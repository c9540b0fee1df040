// Package swap implements the prior-work baselines the paper compares Gist
// against in Figure 15: naive CPU-GPU swapping of stashed feature maps, and
// vDNN-style smart prefetching that overlaps PCIe transfers with kernel
// execution. Both are modeled as discrete-event simulations over the
// graph's forward/backward timeline using the cost model's per-layer times
// and the device's PCIe link.
//
// Naive swapping serializes every offload after the producing layer and
// every fetch before the consuming layer. vDNN instead enqueues offloads as
// soon as a stash's last forward use completes and prefetches each stash in
// reverse order ahead of its backward use; compute only stalls when the DMA
// engine falls behind — exactly the mechanism that leaves vDNN with
// overhead on transfer-heavy networks even with perfect prefetching.
package swap

import (
	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/graph"
)

// stash describes one feature map that must round-trip over PCIe.
type stash struct {
	node  *graph.Node
	bytes int64
	// lastFwdUse is the forward step after which the offload may start.
	lastFwdUse int
	// firstBwdUse is the backward step that needs the data back.
	firstBwdUse int
}

// stashes lists the feature maps the swap policy offloads — every
// baseline-stashed feature map, the working set both swap schemes must
// evict to realize their memory savings — in forward order.
func stashes(g *graph.Graph, tl *graph.Timeline) []stash {
	var out []stash
	for _, n := range g.Nodes {
		if !graph.OutputStashed(n) {
			continue
		}
		out = append(out, stash{
			node:        n,
			bytes:       n.OutShape.Bytes(),
			lastFwdUse:  graph.LastForwardUse(tl, n),
			firstBwdUse: graph.FirstBackwardUse(tl, n),
		})
	}
	return out
}

// stepTimes returns the modeled execution time of every timeline step.
func stepTimes(d costmodel.Device, tl *graph.Timeline) []float64 {
	ts := make([]float64, tl.Len())
	for _, s := range tl.Steps {
		if s.Phase == graph.Forward {
			ts[s.T] = d.ForwardTime(s.Node)
		} else {
			ts[s.T] = d.BackwardTime(s.Node)
		}
	}
	return ts
}

// NaiveStepTime models synchronous swapping: compute blocks for every
// offload after the producing step and for every fetch before the consuming
// step. Total time is the baseline step time plus the full two-way transfer
// time of all stashes.
func NaiveStepTime(d costmodel.Device, g *graph.Graph, tl *graph.Timeline) float64 {
	t := d.StepTime(g)
	for _, s := range stashes(g, tl) {
		t += 2 * d.TransferTime(s.bytes)
	}
	return t
}

// VDNNStepTime models vDNN: a single DMA engine runs transfers in parallel
// with compute. Offloads are enqueued the moment a stash's last forward use
// retires; prefetches are enqueued during the backward pass, earliest-
// needed first, and a backward step stalls until its stash has landed.
// Within each pass, the finish time is the maximum of the compute and DMA
// timelines, with per-step stalls where a needed prefetch is late.
func VDNNStepTime(d costmodel.Device, g *graph.Graph, tl *graph.Timeline) float64 {
	st := stashes(g, tl)
	times := stepTimes(d, tl)
	l := len(g.Nodes)

	// Forward pass: compute advances step by step; each stash's offload is
	// queued on the DMA engine when its last forward use completes. The
	// forward pass is done when both compute and DMA finish (vDNN frees
	// the FP32 buffer only after offload, so the pass cannot retire early).
	offloadAt := map[int][]int64{} // step -> bytes list
	for _, s := range st {
		offloadAt[s.lastFwdUse] = append(offloadAt[s.lastFwdUse], s.bytes)
	}
	var compute, dma float64
	for step := 0; step < l; step++ {
		compute += times[step]
		for _, b := range offloadAt[step] {
			start := max(compute, dma)
			dma = start + d.TransferTime(b)
		}
	}
	fwdEnd := max(compute, dma)

	// Backward pass: prefetches issue in order of first backward use. The
	// DMA engine begins as the backward pass begins; each backward step
	// that consumes a stash waits for that stash's arrival.
	type fetch struct {
		step int
		done float64
	}
	order := make([]stash, len(st))
	copy(order, st)
	// Earliest backward use first = reverse forward order; stashes were
	// collected in forward order, so iterate backwards.
	var fetches []fetch
	dma = fwdEnd
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if s.firstBwdUse < 0 {
			continue
		}
		dma += d.TransferTime(s.bytes)
		fetches = append(fetches, fetch{step: s.firstBwdUse, done: dma})
	}
	arrival := map[int]float64{}
	for _, f := range fetches {
		if f.done > arrival[f.step] {
			arrival[f.step] = f.done
		}
	}

	now := fwdEnd
	for step := l; step < tl.Len(); step++ {
		if a, ok := arrival[step]; ok && a > now {
			now = a // stall for the prefetch
		}
		now += times[step]
	}
	return now
}

// Overheads returns the modeled slowdown of naive swapping and vDNN
// relative to the in-memory baseline for one network.
func Overheads(d costmodel.Device, g *graph.Graph) (naive, vdnn float64) {
	tl := graph.BuildTimeline(g)
	base := d.StepTime(g)
	naive = costmodel.Overhead(base, NaiveStepTime(d, g, tl))
	vdnn = costmodel.Overhead(base, VDNNStepTime(d, g, tl))
	return naive, vdnn
}

// CDMAStepTime models the CDMA follow-up to vDNN (cited in the paper's
// related work): the same offload/prefetch schedule, but feature maps are
// compressed before crossing PCIe, shrinking the transfers by the stash's
// sparsity (narrow-CSR size for sparse ReLU outputs, raw bytes otherwise).
// sparsity predicts each node's zero fraction; nil uses the encoding
// package's default model.
func CDMAStepTime(d costmodel.Device, g *graph.Graph, tl *graph.Timeline,
	sparsity func(n *graph.Node) float64) float64 {
	if sparsity == nil {
		sparsity = encoding.DefaultSparsity
	}
	st := stashes(g, tl)
	times := stepTimes(d, tl)
	l := len(g.Nodes)

	compressed := func(s stash) int64 {
		sp := sparsity(s.node)
		if sp <= 0 {
			return s.bytes
		}
		c := encoding.CSRBytesModel(int(s.bytes/4), sp)
		if c < s.bytes {
			return c
		}
		return s.bytes
	}

	offloadAt := map[int][]int64{}
	for _, s := range st {
		offloadAt[s.lastFwdUse] = append(offloadAt[s.lastFwdUse], compressed(s))
	}
	var compute, dma float64
	for step := 0; step < l; step++ {
		compute += times[step]
		for _, b := range offloadAt[step] {
			start := max(compute, dma)
			dma = start + d.TransferTime(b)
		}
	}
	fwdEnd := max(compute, dma)

	dma = fwdEnd
	arrival := map[int]float64{}
	for i := len(st) - 1; i >= 0; i-- {
		s := st[i]
		if s.firstBwdUse < 0 {
			continue
		}
		dma += d.TransferTime(compressed(s))
		if dma > arrival[s.firstBwdUse] {
			arrival[s.firstBwdUse] = dma
		}
	}
	now := fwdEnd
	for step := l; step < tl.Len(); step++ {
		if a, ok := arrival[step]; ok && a > now {
			now = a
		}
		now += times[step]
	}
	return now
}
