package memplan

import (
	"slices"
	"testing"

	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/liveness"
)

// Table-driven edge cases for PooledBuffers over degenerate and minimal
// graphs: the realized footprint table and the executor's footprint test
// plan over its selection, so it must be sensible (often: nothing) for
// graphs with no steps, no per-step tensors, or fmaps that die the moment
// they are consumed.
func TestPooledBuffersEdgeCases(t *testing.T) {
	singleNode := func() *graph.Graph {
		g := graph.New()
		g.MustAdd("input", layers.NewInput(2, 3, 8, 8))
		return g
	}
	// input -> relu -> avgpool -> loss-free tail: every fmap's backward
	// needs are satisfied without stashing anything beyond the ReLU output.
	immediate := func() *graph.Graph {
		g := graph.New()
		in := g.MustAdd("input", layers.NewInput(2, 3, 8, 8))
		r := g.MustAdd("relu", layers.NewReLU(), in)
		g.MustAdd("pool", layers.NewAvgPool(2, 2, 0), r)
		return g
	}

	cases := []struct {
		name  string
		build func() *graph.Graph
		// wantCounts is the exact multiset of selected element counts, in
		// liveness emission order.
		wantCounts []int
	}{
		{
			name:       "empty graph",
			build:      graph.New,
			wantCounts: nil,
		},
		{
			// A lone input has no gradient map and its output is never
			// consumed: one immediate fmap is all a step would touch.
			name:       "single input node",
			build:      singleNode,
			wantCounts: []int{2 * 3 * 8 * 8},
		},
		{
			// relu.out is an immediate fmap here: AvgPool's backward needs
			// neither its input nor its output, so nothing is stashed and
			// every buffer dies at its consumer's forward step.
			name:  "immediately consumed stashes",
			build: immediate,
			wantCounts: []int{
				2 * 3 * 8 * 8, // input.out
				2 * 3 * 8 * 8, // relu.out
				2 * 3 * 8 * 8, // relu.grad
				2 * 3 * 4 * 4, // pool.out
				2 * 3 * 4 * 4, // pool.grad
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			bufs := liveness.Analyze(g, graph.BuildTimeline(g), liveness.Options{})
			got := elems(PooledBuffers(bufs))
			if !slices.Equal(got, c.wantCounts) {
				t.Fatalf("selected %v, want %v", got, c.wantCounts)
			}
		})
	}

	// Nil and empty buffer lists select nothing.
	if got := PooledBuffers(nil); len(got) != 0 {
		t.Fatalf("PooledBuffers(nil) = %v", got)
	}
	if got := PooledBuffers([]*liveness.Buffer{}); len(got) != 0 {
		t.Fatalf("PooledBuffers(empty) = %v", got)
	}

	// Non-fmap classes are filtered out; a zero-byte map is selected and
	// costs nothing.
	mixed := []*liveness.Buffer{
		{Name: "w", Class: graph.ClassWeights, Bytes: 400},
		{Name: "z", Class: graph.ClassImmediateFmap, Bytes: 0},
		{Name: "enc", Class: graph.ClassEncoded, Bytes: 64},
		{Name: "g", Class: graph.ClassGradientMap, Bytes: 40},
	}
	if got := elems(PooledBuffers(mixed)); !slices.Equal(got, []int{0, 10}) {
		t.Fatalf("filtered selection = %v, want [0 10]", got)
	}
}

// elems returns each buffer's FP32 element count.
func elems(bufs []*liveness.Buffer) []int {
	var n []int
	for _, b := range bufs {
		n = append(n, int(b.Bytes/4))
	}
	return n
}
