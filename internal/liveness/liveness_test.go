package liveness

import (
	"strings"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
)

// testGraph: input -> conv1 -> relu1 -> pool1 -> conv2 -> relu2 -> fc -> loss
func testGraph(t *testing.T) (*graph.Graph, *graph.Timeline) {
	t.Helper()
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 3, 16, 16))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(8, 3, 1, 1), p1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	fc := g.MustAdd("fc", layers.NewFC(10), r2)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g, graph.BuildTimeline(g)
}

func find(bufs []*Buffer, name string) *Buffer {
	for _, b := range bufs {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestBaselineBufferClasses(t *testing.T) {
	g, tl := testGraph(t)
	bufs := Analyze(g, tl, Options{})
	// relu1 output is stashed (own Y need + pool X need).
	b := find(bufs, "relu1.out")
	if b == nil || b.Class != graph.ClassStashedFmap {
		t.Fatalf("relu1.out = %v", b)
	}
	// Its lifetime runs from its forward step to its own backward step.
	r1 := g.Lookup("relu1")
	if b.Start != tl.ForwardStep(r1) || b.End != tl.BackwardStep(r1) {
		t.Errorf("relu1.out lifetime [%d,%d]", b.Start, b.End)
	}
	// conv1 output is immediately consumed (ReLU backward needs only Y).
	c := find(bufs, "conv1.out")
	if c == nil || c.Class != graph.ClassImmediateFmap {
		t.Fatalf("conv1.out = %v", c)
	}
	if c.End != tl.ForwardStep(r1) {
		t.Errorf("conv1.out should die at relu1's forward step, got %d", c.End)
	}
	// Gradient maps exist for non-input nodes only.
	if find(bufs, "input.grad") != nil {
		t.Error("input must have no gradient map")
	}
	gm := find(bufs, "conv2.grad")
	if gm == nil || gm.Class != graph.ClassGradientMap {
		t.Fatalf("conv2.grad = %v", gm)
	}
	// Gradient is produced by relu2's backward and consumed by conv2's.
	c2, r2 := g.Lookup("conv2"), g.Lookup("relu2")
	if gm.Start != tl.BackwardStep(r2) || gm.End != tl.BackwardStep(c2) {
		t.Errorf("conv2.grad lifetime [%d,%d]", gm.Start, gm.End)
	}
}

func TestBaselineExcludesWeightsByDefault(t *testing.T) {
	g, tl := testGraph(t)
	bufs := Analyze(g, tl, Options{})
	for _, b := range bufs {
		if b.Class == graph.ClassWeights || b.Class == graph.ClassWeightGrads ||
			b.Class == graph.ClassWorkspace {
			t.Fatalf("baseline must exclude %v", b)
		}
	}
}

func TestWeightsAndWorkspaceIncluded(t *testing.T) {
	g, tl := testGraph(t)
	bufs := Analyze(g, tl, Options{IncludeWeights: true, IncludeWorkspace: true})
	w := find(bufs, "conv1.w0")
	if w == nil || w.Class != graph.ClassWeights || w.Start != 0 || w.End != tl.Len()-1 {
		t.Fatalf("conv1.w0 = %v", w)
	}
	dw := find(bufs, "conv1.dw0")
	if dw == nil || dw.Start != tl.BackwardStep(g.Lookup("conv1")) {
		t.Fatalf("conv1.dw0 = %v", dw)
	}
	ws := find(bufs, "conv1.ws.fwd")
	if ws == nil || ws.Class != graph.ClassWorkspace || ws.Start != ws.End {
		t.Fatalf("conv1.ws.fwd = %v", ws)
	}
	if find(bufs, "relu1.ws.fwd") != nil {
		t.Error("non-conv layers have no workspace")
	}
}

func TestGistSplitsStashedLifetime(t *testing.T) {
	g, tl := testGraph(t)
	a := encoding.Analyze(g, encoding.Lossless())
	bufs := Analyze(g, tl, Options{Analysis: a})

	// relu1 (Binarize): FP32 out now immediate, encoded mask spans the gap.
	r1 := g.Lookup("relu1")
	out := find(bufs, "relu1.out")
	if out == nil || out.Class != graph.ClassImmediateFmap {
		t.Fatalf("relu1.out = %v", out)
	}
	enc := find(bufs, "relu1.enc")
	if enc == nil || enc.Class != graph.ClassEncoded {
		t.Fatalf("relu1.enc = %v", enc)
	}
	if enc.Start != graph.LastForwardUse(tl, r1) || enc.End != tl.BackwardStep(r1) {
		t.Errorf("relu1.enc lifetime [%d,%d]", enc.Start, enc.End)
	}
	if enc.Bytes >= out.Bytes/30 {
		t.Errorf("Binarize mask too large: %d vs %d", enc.Bytes, out.Bytes)
	}
	// Binarize has no decoded staging buffer.
	if find(bufs, "relu1.dec") != nil {
		t.Error("Binarize must not create a decoded buffer")
	}
	// pool1 argmax map spans pool fwd..bwd.
	p1 := g.Lookup("pool1")
	am := find(bufs, "pool1.argmax")
	if am == nil || am.Start != tl.ForwardStep(p1) || am.End != tl.BackwardStep(p1) {
		t.Fatalf("pool1.argmax = %v", am)
	}

	// pool1 (ZVC, feeds conv2): its one backward reader, a Conv, reads it
	// as stored, so the executor's plan has no decoded buffer for it.
	if find(bufs, "pool1.dec") != nil {
		t.Error("pool1 is read as stored: no decoded buffer")
	}
	// The paper's plan stages it: encoded + decoded buffers.
	bufs = Analyze(g, tl, Options{Analysis: a, PaperStaging: true})
	encP := find(bufs, "pool1.enc")
	if encP == nil {
		t.Fatal("pool1.enc missing")
	}
	decP := find(bufs, "pool1.dec")
	if decP == nil || decP.Class != graph.ClassDecoded {
		t.Fatalf("pool1.dec = %v", decP)
	}
	// Decode happens at conv2's backward step (pool1's only backward reader).
	c2 := g.Lookup("conv2")
	if decP.Start != tl.BackwardStep(c2) || decP.End != tl.BackwardStep(c2) {
		t.Errorf("pool1.dec lifetime [%d,%d]", decP.Start, decP.End)
	}
	// Encoded buffer is freed at the decode step.
	if encP.End != tl.BackwardStep(c2) {
		t.Errorf("pool1.enc end = %d", encP.End)
	}
}

func TestElideDecoded(t *testing.T) {
	g, tl := testGraph(t)
	a := encoding.Analyze(g, encoding.Lossless())
	bufs := Analyze(g, tl, Options{Analysis: a, ElideDecoded: true})
	for _, b := range bufs {
		if b.Class == graph.ClassDecoded {
			t.Fatalf("decoded buffer survived eliding: %v", b)
		}
	}
}

func TestInplaceElidesProducerBuffer(t *testing.T) {
	g, tl := testGraph(t)
	a := encoding.Analyze(g, encoding.Lossless())
	bufs := Analyze(g, tl, Options{Analysis: a})
	// conv1.out is elided (relu1 computes in place); relu1.out starts at
	// conv1's forward step instead.
	if find(bufs, "conv1.out") != nil {
		t.Fatal("conv1.out should be elided by inplace ReLU")
	}
	r1out := find(bufs, "relu1.out")
	if r1out.Start != tl.ForwardStep(g.Lookup("conv1")) {
		t.Errorf("relu1.out should start at conv1's step, got %d", r1out.Start)
	}
}

func TestNoShareStashed(t *testing.T) {
	g, tl := testGraph(t)
	bufs := Analyze(g, tl, Options{NoShareStashed: true})
	sawStash := false
	for _, b := range bufs {
		if b.Class == graph.ClassStashedFmap {
			sawStash = true
			if !b.NoShare {
				t.Fatalf("stashed buffer not NoShare: %v", b)
			}
		} else if b.NoShare {
			t.Fatalf("non-stashed buffer marked NoShare: %v", b)
		}
	}
	if !sawStash {
		t.Fatal("no stashed buffers found")
	}
}

func TestTotalByClass(t *testing.T) {
	g, tl := testGraph(t)
	bufs := Analyze(g, tl, Options{})
	m := TotalByClass(bufs)
	if m[graph.ClassStashedFmap] == 0 || m[graph.ClassGradientMap] == 0 {
		t.Fatalf("breakdown = %v", m)
	}
	var total int64
	for _, b := range bufs {
		total += b.Bytes
	}
	var sum int64
	for _, v := range m {
		sum += v
	}
	if sum != total {
		t.Fatalf("class sums %d != total %d", sum, total)
	}
}

func TestBufferStringAndOverlap(t *testing.T) {
	a := &Buffer{Name: "a", Class: graph.ClassStashedFmap, Bytes: 4, Start: 0, End: 5}
	b := &Buffer{Name: "b", Class: graph.ClassGradientMap, Bytes: 4, Start: 5, End: 9}
	c := &Buffer{Name: "c", Class: graph.ClassGradientMap, Bytes: 4, Start: 6, End: 9}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("inclusive endpoints must overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint intervals must not overlap")
	}
	if !strings.Contains(a.String(), "stashed") {
		t.Error("String should include the class")
	}
}

func TestMemoryOptimalWorkspace(t *testing.T) {
	g := graph.New()
	in := g.MustAdd("in", layers.NewInput(64, 3, 224, 224))
	conv := g.MustAdd("conv", layers.NewConv2D(64, 3, 1, 1), in)
	relu := g.MustAdd("relu", layers.NewReLU(), conv)
	if MemoryOptimalWorkspace(relu) != 0 {
		t.Error("relu workspace must be 0")
	}
	ws := MemoryOptimalWorkspace(conv)
	if ws <= 0 || ws > 4<<20 {
		t.Errorf("conv workspace = %d, want (0, 4MB]", ws)
	}

	// A 1x1, stride-1, unpadded convolution is already a GEMM: no column
	// matrix, so no workspace.
	wide := g.MustAdd("wide", layers.NewInput(64, 256, 28, 28))
	pointwise := g.MustAdd("pointwise", layers.NewConv2D(64, 1, 1, 0), wide)
	if got := MemoryOptimalWorkspace(pointwise); got != 0 {
		t.Errorf("1x1 conv workspace = %d, want 0", got)
	}

	// Few input channels and a strided 3x3: one image's column matrix
	// (2*3*3 x 17*17 FP32) is smaller than an eighth of the output, so it
	// is the workspace.
	narrow := g.MustAdd("narrow", layers.NewInput(64, 2, 33, 33))
	strided := g.MustAdd("strided", layers.NewConv2D(64, 3, 2, 1), narrow)
	if got, want := MemoryOptimalWorkspace(strided), int64(2*3*3*17*17*4); got != want {
		t.Errorf("column-capped conv workspace = %d, want %d", got, want)
	}
}

func TestEncodedMuchSmallerThanBaselineStash(t *testing.T) {
	// Summed over the whole graph, Gist's encoded stashes must be a small
	// fraction of the baseline stashed bytes.
	g, tl := testGraph(t)
	base := TotalByClass(Analyze(g, tl, Options{}))
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	enc := TotalByClass(Analyze(g, tl, Options{Analysis: a}))
	if enc[graph.ClassEncoded] >= base[graph.ClassStashedFmap]/2 {
		t.Errorf("encoded %d should be < half of stashed %d",
			enc[graph.ClassEncoded], base[graph.ClassStashedFmap])
	}
}
