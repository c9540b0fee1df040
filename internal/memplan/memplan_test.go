package memplan

import (
	"testing"
	"testing/quick"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/liveness"
	"gist/internal/tensor"
)

func buf(name string, bytes int64, start, end int) *liveness.Buffer {
	return &liveness.Buffer{Name: name, Bytes: bytes, Start: start, End: end}
}

func TestPaperFigure7Example(t *testing.T) {
	// The paper's worked example (Figure 7a): stashed X (10 MB, long
	// lifetime) plus immediately consumed A, B, C, D. The allocator forms
	// 2 groups totalling 18 MB: 10 for X, 8 for the immediates.
	const mb = 1 << 20
	x := buf("X", 10*mb, 0, 11) // stashed across the whole timeline
	a := buf("A", 8*mb, 2, 3)   // immediately consumed, pairwise disjoint
	b := buf("B", 6*mb, 4, 5)
	c := buf("C", 7*mb, 6, 7)
	d := buf("D", 5*mb, 8, 9)
	p := PlanStatic([]*liveness.Buffer{x, a, b, c, d})
	if p.TotalBytes != 18*mb {
		t.Fatalf("baseline total = %d MB, want 18", p.TotalBytes/mb)
	}
	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(p.Groups))
	}
	if _, _, ok := p.Validate(); !ok {
		t.Fatal("plan has overlapping buffers in a group")
	}

	// Figure 7b: SSDC splits X into an immediate FP32 (short), a 2 MB
	// encoded stash (long) and a decoded FP32 (short, at the backward
	// use). The immediates now all share one 10 MB region and the encoded
	// stash needs its own 2 MB: total 12 MB, MFR 1.5x.
	xFwd := buf("X.out", 10*mb, 0, 1)
	xEnc := buf("X.enc", 2*mb, 1, 10)
	xDec := buf("X.dec", 10*mb, 10, 11)
	p2 := PlanStatic([]*liveness.Buffer{xFwd, xEnc, xDec, a, b, c, d})
	if p2.TotalBytes != 12*mb {
		t.Fatalf("encoded total = %d MB, want 12", p2.TotalBytes/mb)
	}
	if MFR(p.TotalBytes, p2.TotalBytes) != 1.5 {
		t.Fatalf("MFR = %v, want 1.5", MFR(p.TotalBytes, p2.TotalBytes))
	}
}

func TestNoSharePlacement(t *testing.T) {
	// A NoShare stash gets its own region; disjoint buffers must not join.
	x := buf("stash", 100, 0, 3)
	x.NoShare = true
	y := buf("other", 50, 5, 6)
	p := PlanStatic([]*liveness.Buffer{x, y})
	if len(p.Groups) != 2 || p.TotalBytes != 150 {
		t.Fatalf("NoShare violated: %d groups, %d bytes", len(p.Groups), p.TotalBytes)
	}
}

func TestZeroByteBuffersSkipped(t *testing.T) {
	p := PlanStatic([]*liveness.Buffer{buf("z", 0, 0, 1), buf("a", 10, 0, 1)})
	if p.TotalBytes != 10 || len(p.Groups) != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlanDynamicPeak(t *testing.T) {
	// Three buffers: two overlap, the third is disjoint and larger alone
	// but smaller than the overlapping pair.
	bufs := []*liveness.Buffer{
		buf("a", 10, 0, 2),
		buf("b", 8, 1, 3),
		buf("c", 15, 5, 6),
	}
	if got := PlanDynamic(bufs); got != 18 {
		t.Fatalf("dynamic peak = %d, want 18", got)
	}
}

func TestPlanDynamicAdjacentNoOverlap(t *testing.T) {
	// A buffer ending at step 4 and one starting at step 5 never coexist.
	bufs := []*liveness.Buffer{buf("a", 10, 0, 4), buf("b", 10, 5, 9)}
	if got := PlanDynamic(bufs); got != 10 {
		t.Fatalf("dynamic peak = %d, want 10", got)
	}
}

func TestDynamicNeverExceedsStatic(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 3 + r.Intn(40)
		bufs := make([]*liveness.Buffer, n)
		for i := range bufs {
			s := r.Intn(50)
			e := s + r.Intn(30)
			bufs[i] = buf("b", int64(1+r.Intn(1000)), s, e)
		}
		static := PlanStatic(bufs)
		if _, _, ok := static.Validate(); !ok {
			return false
		}
		return PlanDynamic(bufs) <= static.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPackIsAValidLayout checks Pack's contract on random lifetimes: no two
// buffers alive at once share a byte, and the region is at least the
// dynamic peak and at most the sum of the buffers.
func TestPackIsAValidLayout(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 + r.Intn(40)
		bufs := make([]*liveness.Buffer, n)
		var sum int64
		for i := range bufs {
			s := r.Intn(50)
			bufs[i] = buf("b", int64(r.Intn(1000)), s, s+r.Intn(30))
			sum += bufs[i].Bytes
		}
		offs, size := Pack(bufs)
		for i, a := range bufs {
			for j, b := range bufs[:i] {
				if a.Bytes > 0 && b.Bytes > 0 && a.Overlaps(b) &&
					offs[i] < offs[j]+b.Bytes && offs[j] < offs[i]+a.Bytes {
					return false
				}
			}
			if offs[i] < 0 || offs[i]+a.Bytes > size {
				return false
			}
		}
		return PlanDynamic(bufs) <= size && size <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPackPaperFigure7 lays the paper's worked example out by offset: the
// same 18 MB baseline and 12 MB encoded footprint as the static groups,
// with the stashed X's encoded form above the maps it outlives.
func TestPackPaperFigure7(t *testing.T) {
	const mb = 1 << 20
	a, b, c, d := buf("A", 8*mb, 2, 3), buf("B", 6*mb, 4, 5), buf("C", 7*mb, 6, 7), buf("D", 5*mb, 8, 9)
	if _, size := Pack([]*liveness.Buffer{buf("X", 10*mb, 0, 11), a, b, c, d}); size != 18*mb {
		t.Fatalf("baseline packs into %d MB, want 18", size/mb)
	}
	enc := buf("X.enc", 2*mb, 1, 10)
	offs, size := Pack([]*liveness.Buffer{buf("X.out", 10*mb, 0, 1), enc, buf("X.dec", 10*mb, 10, 11), a, b, c, d})
	if size != 12*mb || offs[1] != 10*mb {
		t.Fatalf("encoded packs into %d MB with X.enc at %d MB, want 12 with it at 10", size/mb, offs[1]/mb)
	}
}

func TestStaticNeverExceedsSumOfBuffers(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 + r.Intn(30)
		bufs := make([]*liveness.Buffer, n)
		var sum int64
		for i := range bufs {
			s := r.Intn(20)
			e := s + r.Intn(20)
			bufs[i] = buf("b", int64(1+r.Intn(100)), s, e)
			sum += bufs[i].Bytes
		}
		p := PlanStatic(bufs)
		return p.TotalBytes <= sum && p.TotalBytes > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestByClassSumsToTotal(t *testing.T) {
	a := buf("a", 10, 0, 2)
	a.Class = graph.ClassStashedFmap
	b := buf("b", 8, 3, 4)
	b.Class = graph.ClassGradientMap
	p := PlanStatic([]*liveness.Buffer{a, b})
	var sum int64
	for _, v := range p.ByClass {
		sum += v
	}
	if sum != p.TotalBytes {
		t.Fatalf("class sum %d != total %d", sum, p.TotalBytes)
	}
	// a and b share one group (disjoint): attributed to the larger (a).
	if p.ByClass[graph.ClassStashedFmap] != 10 || p.ByClass[graph.ClassGradientMap] != 0 {
		t.Fatalf("attribution = %v", p.ByClass)
	}
}

func TestMFRZeroDenominator(t *testing.T) {
	if MFR(100, 0) != 0 {
		t.Fatal("MFR with zero encoded footprint should be 0")
	}
}

func TestEndToEndGistReducesFootprint(t *testing.T) {
	// The headline property on a realistic block: Gist lossless+lossy
	// must strictly reduce the statically planned footprint.
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(8, 3, 32, 32))
	prev := in
	for i, ch := range []int{16, 16, 32, 32} {
		conv := g.MustAdd("", layers.NewConv2D(ch, 3, 1, 1), prev)
		relu := g.MustAdd("", layers.NewReLU(), conv)
		if i%2 == 1 {
			prev = g.MustAdd("", layers.NewMaxPool(2, 2, 0), relu)
		} else {
			prev = relu
		}
	}
	fc := g.MustAdd("fc", layers.NewFC(10), prev)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	tl := graph.BuildTimeline(g)

	base := PlanStatic(liveness.Analyze(g, tl, liveness.Options{}))
	if _, _, ok := base.Validate(); !ok {
		t.Fatal("baseline plan invalid")
	}

	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP8))
	gist := PlanStatic(liveness.Analyze(g, tl, liveness.Options{Analysis: a}))
	if _, _, ok := gist.Validate(); !ok {
		t.Fatal("gist plan invalid")
	}
	mfr := MFR(base.TotalBytes, gist.TotalBytes)
	if mfr <= 1.1 {
		t.Fatalf("Gist MFR = %v, want > 1.1", mfr)
	}
	// Dynamic allocation under Gist must also beat the static baseline.
	dyn := PlanDynamic(liveness.Analyze(g, tl, liveness.Options{Analysis: a}))
	if dyn > gist.TotalBytes {
		t.Fatalf("dynamic %d should not exceed static %d", dyn, gist.TotalBytes)
	}
}

func TestSortingHeuristicWinsOnAverage(t *testing.T) {
	// Greedy first-fit is not formally dominant under any ordering, so
	// size-sorting can occasionally lose to insertion order on adversarial
	// sets — but it must win decisively in aggregate, which is exactly the
	// claim behind CNTK's heuristic.
	var sortedTotal, unsortedTotal int64
	wins, losses := 0, 0
	for seed := uint64(1); seed <= 300; seed++ {
		r := tensor.NewRNG(seed)
		n := 3 + r.Intn(40)
		bufs := make([]*liveness.Buffer, n)
		for i := range bufs {
			s := r.Intn(40)
			e := s + r.Intn(25)
			bufs[i] = buf("b", int64(1+r.Intn(1000)), s, e)
		}
		sorted := PlanStatic(bufs)
		unsorted := group(bufs)
		if _, _, ok := unsorted.Validate(); !ok {
			t.Fatal("unsorted plan invalid")
		}
		sortedTotal += sorted.TotalBytes
		unsortedTotal += unsorted.TotalBytes
		switch {
		case sorted.TotalBytes < unsorted.TotalBytes:
			wins++
		case sorted.TotalBytes > unsorted.TotalBytes:
			losses++
		}
	}
	if sortedTotal >= unsortedTotal {
		t.Fatalf("size sort should reduce aggregate footprint: %d vs %d",
			sortedTotal, unsortedTotal)
	}
	if wins < 5*losses {
		t.Fatalf("size sort should win decisively: %d wins, %d losses", wins, losses)
	}
}

func TestSizeSortingMattersOnRealNetwork(t *testing.T) {
	// The ablation's point: on a real network's buffer set, the size sort
	// never loses to insertion order.
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(8, 3, 32, 32))
	prev := in
	for i, ch := range []int{16, 32, 64} {
		conv := g.MustAdd("", layers.NewConv2D(ch, 3, 1, 1), prev)
		relu := g.MustAdd("", layers.NewReLU(), conv)
		prev = g.MustAdd("", layers.NewMaxPool(2, 2, 0), relu)
		_ = i
	}
	fc := g.MustAdd("fc", layers.NewFC(10), prev)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	tl := graph.BuildTimeline(g)
	bufs := liveness.Analyze(g, tl, liveness.Options{})
	sorted := PlanStatic(bufs)
	unsorted := group(bufs)
	if sorted.TotalBytes > unsorted.TotalBytes {
		t.Fatalf("sorted %d should not exceed unsorted %d", sorted.TotalBytes, unsorted.TotalBytes)
	}
}
