// Package liveness performs the static lifetime analysis Gist's Schedule
// Builder hands to the memory allocator. It walks the forward+backward
// timeline of an execution graph and emits one Buffer per allocation with
// its class, size in bytes, and the inclusive step interval during which it
// must be resident.
//
// Under a Gist analysis, a stashed feature map's single long FP32 lifetime
// is split into the paper's three regions (Figure 2): an FP32 buffer live
// only through the forward use, an encoded buffer live across the temporal
// gap, and (for SSDC/DPR) a decoded FP32 staging buffer live only through
// the backward use.
package liveness

import (
	"fmt"

	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/layers"
)

// Buffer is one allocation with its lifetime on the timeline.
type Buffer struct {
	Name  string
	Class graph.BufferClass
	Bytes int64
	// Start and End are the inclusive timeline steps during which the
	// buffer must be resident.
	Start, End int
	// Node is the producing node (nil for none).
	Node *graph.Node
	// NoShare excludes the buffer from memory sharing — used by the
	// paper's "investigation baseline" for stashed feature maps.
	NoShare bool
}

// Overlaps reports whether two lifetimes intersect.
func (b *Buffer) Overlaps(o *Buffer) bool {
	return b.Start <= o.End && o.Start <= b.End
}

// String renders the buffer for debugging.
func (b *Buffer) String() string {
	return fmt.Sprintf("%s[%s %dB @%d..%d]", b.Name, b.Class, b.Bytes, b.Start, b.End)
}

// Options selects which buffer classes the analysis emits and which
// transforms apply.
type Options struct {
	// Analysis is the Gist encoding analysis; nil means baseline (no
	// encodings). Inplace is honored from the analysis config.
	Analysis *encoding.Analysis
	// IncludeWeights adds weights and weight gradients (Figure 1's full
	// breakdown; the paper's CNTK baseline excludes them).
	IncludeWeights bool
	// IncludeWorkspace adds cuDNN-style per-layer workspace buffers, sized
	// by MemoryOptimalWorkspace.
	IncludeWorkspace bool
	// ElideDecoded drops decoded FP32 staging buffers — the paper's
	// "optimized software" scenario where cuDNN consumes encoded data.
	ElideDecoded bool
	// PaperStaging plans a decoded staging buffer for every stash the
	// paper's implementation decodes before its backward use — all but
	// Binarize — including the SSDC and ZVC stashes this repo's executor
	// reads as stored (NeedsDecode false). The paper's figures plan with
	// it; without it the plan follows NeedsDecode, as the executor runs.
	PaperStaging bool
	// NoShareStashed marks stashed feature maps NoShare — the paper's
	// "investigation baseline".
	NoShareStashed bool
}

// MemoryOptimalWorkspace models cuDNN's memory-optimal convolution
// algorithms: implicit GEMM needs only a small tile buffer, modeled as 1/8
// of the layer output capped at 4 MB. Non-convolution layers need none.
// This is the paper's baseline configuration.
func MemoryOptimalWorkspace(n *graph.Node) int64 {
	if n.Kind() != layers.Conv {
		return 0
	}
	ws := n.OutShape.Bytes() / 8
	const cap4MB = 4 << 20
	if ws > cap4MB {
		ws = cap4MB
	}
	// The memory-optimal configuration picks the smallest-workspace
	// algorithm available, so it can never need more than the im2col
	// lowering does.
	return min(ws, im2colWorkspace(n))
}

// im2colWorkspace is the workspace of the im2col/GEMM lowering, the
// performance-optimal end of the tradeoff the paper describes in Section
// II: one image's column matrix, inC*kh*kw x oh*ow FP32 values. A 1x1,
// stride-1, unpadded convolution is already a GEMM over its input and
// materializes none.
func im2colWorkspace(n *graph.Node) int64 {
	conv, ok := n.Op.(*layers.Conv2D)
	if !ok {
		return 0
	}
	if conv.KH == 1 && conv.KW == 1 && conv.Stride == 1 && conv.Pad == 0 {
		return 0
	}
	inC, oh, ow := n.Inputs[0].OutShape[1], n.OutShape[2], n.OutShape[3]
	return int64(inC*conv.KH*conv.KW) * int64(oh*ow) * 4
}

// Analyze emits the buffer set of the graph under the given options.
func Analyze(g *graph.Graph, tl *graph.Timeline, opts Options) []*Buffer {
	var bufs []*Buffer
	end := tl.Len() - 1

	stashed := func(n *graph.Node) bool {
		if opts.Analysis != nil {
			return opts.Analysis.OutputStashed(n)
		}
		return graph.OutputStashed(n)
	}
	// Backward use steps under effective needs.
	bwdUses := func(n *graph.Node) (first, last int) {
		first, last = -1, -1
		add := func(s int) {
			if first == -1 || s < first {
				first = s
			}
			if s > last {
				last = s
			}
		}
		needsY := n.Op.Needs().Y
		if opts.Analysis != nil {
			needsY = opts.Analysis.EffectiveNeeds(n).Y
		}
		if needsY {
			add(tl.BackwardStep(n))
		}
		for _, c := range n.Consumers() {
			needsX := c.Op.Needs().X
			if opts.Analysis != nil {
				needsX = opts.Analysis.EffectiveNeeds(c).X
			}
			if needsX {
				add(tl.BackwardStep(c))
			}
		}
		return first, last
	}

	inplaceInto := map[int]bool{}    // producer node IDs whose output buffer is elided
	gradInplaceInto := map[int]int{} // input node ID -> ReLU node ID whose grad buffer hosts it
	gradExtendedTo := map[int]int{}  // ReLU node ID -> merged grad end step
	if opts.Analysis != nil && opts.Analysis.Config.Inplace {
		for _, n := range g.Nodes {
			if graph.InplaceEligible(n) {
				inplaceInto[n.Inputs[0].ID] = true
			}
			// ReLU backward is read-once/write-once on gradients too: dX
			// can be computed in dY's buffer when the input's gradient has
			// no other producer (single consumer).
			if n.Kind() == layers.ReLU && len(n.Inputs) == 1 {
				in := n.Inputs[0]
				if len(in.Consumers()) == 1 && in.Kind() != layers.Input {
					gradInplaceInto[in.ID] = n.ID
					gradExtendedTo[n.ID] = tl.BackwardStep(in)
				}
			}
		}
	}

	for _, n := range g.Nodes {
		fp32 := n.OutShape.Bytes()
		fwd := tl.ForwardStep(n)
		lastFwdUse := graph.LastForwardUse(tl, n)

		var as *encoding.Assignment
		if opts.Analysis != nil {
			as = opts.Analysis.ByNode[n.ID]
		}

		if inplaceInto[n.ID] {
			// The single consumer (a ReLU) computes in this buffer; the
			// consumer's buffer entry covers the merged lifetime.
		} else {
			start := fwd
			if opts.Analysis != nil && opts.Analysis.Config.Inplace &&
				graph.InplaceEligible(n) {
				start = tl.ForwardStep(n.Inputs[0])
			}
			switch {
			case as != nil:
				// Encoded stash: FP32 form lives only through the forward
				// use (it is now immediately consumed data).
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".out", Class: graph.ClassImmediateFmap,
					Bytes: fp32, Start: start, End: lastFwdUse, Node: n,
				})
				first, last := bwdUses(n)
				staged := as.NeedsDecode || (opts.PaperStaging && as.Tech != encoding.Binarize)
				encEnd := last // read as stored: through the last use
				if staged {
					encEnd = first // freed once decoded
				}
				if encEnd < lastFwdUse {
					// Binarize rewires all backward readers; the mask is
					// still read by the ReLU's own backward step.
					encEnd = tl.BackwardStep(n)
				}
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".enc", Class: graph.ClassEncoded,
					Bytes: as.EncodedBytes, Start: lastFwdUse, End: encEnd, Node: n,
				})
				if staged && !opts.ElideDecoded {
					bufs = append(bufs, &Buffer{
						Name: n.Name + ".dec", Class: graph.ClassDecoded,
						Bytes: fp32, Start: first, End: last, Node: n,
					})
				}
			case stashed(n):
				_, last := bwdUses(n)
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".out", Class: graph.ClassStashedFmap,
					Bytes: fp32, Start: start, End: last, Node: n,
					NoShare: opts.NoShareStashed,
				})
			default:
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".out", Class: graph.ClassImmediateFmap,
					Bytes: fp32, Start: start, End: lastFwdUse, Node: n,
				})
			}
		}

		// Binarize pool-side argmax maps live from the pool's forward to
		// its backward step.
		if opts.Analysis != nil {
			if mapBytes, ok := opts.Analysis.PoolMaps[n.ID]; ok {
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".argmax", Class: graph.ClassEncoded,
					Bytes: mapBytes, Start: fwd, End: tl.BackwardStep(n), Node: n,
				})
			}
		}

		// Gradient maps: the gradient w.r.t. n's output, produced by the
		// earliest consumer backward (or the loss itself) and consumed by
		// n's own backward step. The graph input needs no gradient. A ReLU
		// consumer computing its backward inplace hosts this gradient in
		// its own gradient buffer (gradInplaceInto); a ReLU whose backward
		// is inplace extends its gradient buffer to the merged lifetime.
		if n.Kind() != layers.Input {
			if _, merged := gradInplaceInto[n.ID]; !merged {
				end := tl.BackwardStep(n)
				if ext, ok := gradExtendedTo[n.ID]; ok && ext > end {
					end = ext
				}
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".grad", Class: graph.ClassGradientMap,
					Bytes: fp32, Start: graph.GradProducedStep(tl, n),
					End: end, Node: n,
				})
			}
		}

		if opts.IncludeWeights {
			for i, p := range n.ParamShapes {
				bufs = append(bufs, &Buffer{
					Name: fmt.Sprintf("%s.w%d", n.Name, i), Class: graph.ClassWeights,
					Bytes: p.Bytes(), Start: 0, End: end, Node: n,
				})
				bufs = append(bufs, &Buffer{
					Name: fmt.Sprintf("%s.dw%d", n.Name, i), Class: graph.ClassWeightGrads,
					Bytes: p.Bytes(), Start: tl.BackwardStep(n), End: end, Node: n,
				})
			}
		}

		if opts.IncludeWorkspace {
			if ws := MemoryOptimalWorkspace(n); ws > 0 {
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".ws.fwd", Class: graph.ClassWorkspace,
					Bytes: ws, Start: fwd, End: fwd, Node: n,
				})
				bufs = append(bufs, &Buffer{
					Name: n.Name + ".ws.bwd", Class: graph.ClassWorkspace,
					Bytes: ws, Start: tl.BackwardStep(n), End: tl.BackwardStep(n), Node: n,
				})
			}
		}
	}
	return bufs
}

// TotalByClass sums buffer bytes per class (raw, before any sharing).
func TotalByClass(bufs []*Buffer) map[graph.BufferClass]int64 {
	m := map[graph.BufferClass]int64{}
	for _, b := range bufs {
		m[b.Class] += b.Bytes
	}
	return m
}
