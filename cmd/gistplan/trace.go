package main

// Lifetime tracing: render the paper's Figure 2 for a chosen layer — the
// baseline's single long FP32 lifetime versus Gist's three-region split
// (FP32 through the forward use, encoded across the temporal gap, decoded
// FP32 at the backward use) — as a text timeline.

import (
	"fmt"
	"io"
	"strings"

	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/liveness"
)

// traceLifetimes writes timeline bars for every buffer belonging to the
// named node, under both the baseline and the given Gist configuration.
func traceLifetimes(w io.Writer, g *graph.Graph, name string, cfg encoding.Config) error {
	node := g.Lookup(name)
	if node == nil {
		return fmt.Errorf("no layer named %q", name)
	}
	tl := graph.BuildTimeline(g)

	render := func(title string, bufs []*liveness.Buffer) {
		fmt.Fprintf(w, "%s\n", title)
		const width = 64
		scale := func(step int) int {
			return step * (width - 1) / max(1, tl.Len()-1)
		}
		for _, b := range bufs {
			if b.Node == nil || b.Node.ID != node.ID {
				continue
			}
			bar := make([]byte, width)
			for i := range bar {
				bar[i] = '.'
			}
			for i := scale(b.Start); i <= scale(b.End); i++ {
				bar[i] = '#'
			}
			fmt.Fprintf(w, "  %-14s %-22s |%s| %7d B\n",
				strings.TrimPrefix(b.Name, name+"."), b.Class, bar, b.Bytes)
		}
	}

	base := liveness.Analyze(g, tl, liveness.Options{})
	render(fmt.Sprintf("baseline lifetimes of %q (timeline: forward then backward)", name), base)

	a := encoding.Analyze(g, cfg)
	gist := liveness.Analyze(g, tl, liveness.Options{Analysis: a, PaperStaging: true})
	fmt.Fprintln(w)
	render(fmt.Sprintf("gist lifetimes of %q", name), gist)

	if as := a.ByNode[node.ID]; as != nil {
		fmt.Fprintf(w, "\nencoding: %v (%d -> %d bytes, %.1fx)\n",
			as.Tech, node.OutShape.Bytes(), as.EncodedBytes, as.CompressionRatio())
	} else {
		fmt.Fprintln(w, "\n(no encoding applies to this layer's output)")
	}
	return nil
}
