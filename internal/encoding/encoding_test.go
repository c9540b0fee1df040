package encoding

import (
	"errors"
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/tensor"
)

// vggBlock builds Input -> conv -> relu -> conv -> relu -> pool -> conv ->
// relu -> fc -> loss: contains ReLU-Conv, ReLU-Pool and Pool-Conv pairs.
func vggBlock(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(4, 3, 32, 32))
	c1 := g.MustAdd("conv1", layers.NewConv2D(16, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(16, 3, 1, 1), r1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r2)
	c3 := g.MustAdd("conv3", layers.NewConv2D(32, 3, 1, 1), p1)
	r3 := g.MustAdd("relu3", layers.NewReLU(), c3)
	fc := g.MustAdd("fc", layers.NewFC(10), r3)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g
}

func TestAnalyzePatterns(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Config{Binarize: true, SSDC: true, DPR: floatenc.FP8, FCIsConvLike: true})

	// relu1 feeds conv2: SSDC.
	if as := a.ByNode[g.Lookup("relu1").ID]; as == nil || as.Tech != SSDC {
		t.Errorf("relu1 should be SSDC, got %v", as)
	}
	// relu2 feeds pool1 only: Binarize.
	if as := a.ByNode[g.Lookup("relu2").ID]; as == nil || as.Tech != Binarize {
		t.Errorf("relu2 should be Binarize, got %v", as)
	}
	// pool1 feeds conv3 and follows a ReLU: SSDC (sparsity permitting).
	p1 := g.Lookup("pool1")
	if as := a.ByNode[p1.ID]; as != nil && as.Tech == SSDC {
		// Pool sparsity = 0.7^4 ≈ 0.24, just above break-even 0.2.
		if as.Sparsity < 0.2 {
			t.Errorf("pool1 SSDC below break-even: %v", as.Sparsity)
		}
	} else if as == nil {
		t.Error("pool1 should have an assignment (SSDC or DPR)")
	}
	// relu3 feeds fc (conv-like here): SSDC.
	if as := a.ByNode[g.Lookup("relu3").ID]; as == nil || as.Tech != SSDC {
		t.Errorf("relu3 should be SSDC, got %v", as)
	}
	// input feeds conv1 (needs X): stashed, DPR.
	if as := a.ByNode[g.Lookup("input").ID]; as == nil || as.Tech != DPR {
		t.Errorf("input should be DPR, got %v", as)
	}
	// conv1 output is not stashed (ReLU needs only Y): no assignment.
	if as := a.ByNode[g.Lookup("conv1").ID]; as != nil {
		t.Errorf("conv1 should have no assignment, got %v", as.Tech)
	}
	// Binarize rewired pool1's backward needs.
	if a.EffectiveNeeds(p1) != (layers.BackwardNeeds{}) {
		t.Error("binarized pool must need neither X nor Y")
	}
	// The pool argmax map exists.
	if a.PoolMaps[p1.ID] == 0 {
		t.Error("pool1 argmax map missing")
	}
}

func TestAnalyzeWithoutFCConvLike(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Config{SSDC: true, DPR: floatenc.FP32})
	// relu3 feeds only FC; without FCIsConvLike it gets no SSDC and, with
	// DPR off, no assignment at all.
	if as := a.ByNode[g.Lookup("relu3").ID]; as != nil {
		t.Errorf("relu3 should be unassigned, got %v", as.Tech)
	}
}

func TestBinarizeBlockedByConvConsumer(t *testing.T) {
	// Inception-style branch: relu feeds both a pool and a conv. Binarize
	// must not apply; SSDC must take over.
	g := graph.New()
	in := g.MustAdd("in", layers.NewInput(2, 8, 16, 16))
	c := g.MustAdd("conv", layers.NewConv2D(8, 3, 1, 1), in)
	r := g.MustAdd("relu", layers.NewReLU(), c)
	g.MustAdd("pool", layers.NewMaxPool(2, 2, 0), r)
	g.MustAdd("branchconv", layers.NewConv2D(8, 1, 1, 0), r)
	a := Analyze(g, Config{Binarize: true, SSDC: true})
	as := a.ByNode[r.ID]
	if as == nil || as.Tech != SSDC {
		t.Fatalf("branching relu should be SSDC, got %v", as)
	}
}

func TestSSDCSkippedBelowBreakEven(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Config{SSDC: true, Sparsity: func(*graph.Node) float64 { return 0.1 }})
	for id, as := range a.ByNode {
		if as.Tech == SSDC {
			t.Errorf("node %d got SSDC at 10%% sparsity", id)
		}
	}
}

func TestEncodedSizes(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, LossyLossless(floatenc.FP8))
	r2 := g.Lookup("relu2")
	as := a.ByNode[r2.ID]
	elems := r2.OutShape.NumElements()
	// Binarize mask: ~1 bit/elem => ratio near 32 (padding aside).
	if ratio := as.CompressionRatio(); ratio < 30 || ratio > 32.5 {
		t.Errorf("Binarize ratio = %v", ratio)
	}
	_ = elems
	// Pool argmax map: 4 bits per pool output.
	p1 := g.Lookup("pool1")
	wantMap := int64((p1.OutShape.NumElements()+7)/8) * 4
	if a.PoolMaps[p1.ID] != wantMap {
		t.Errorf("pool map bytes = %d, want %d", a.PoolMaps[p1.ID], wantMap)
	}
	// DPR FP8: 4x.
	inN := g.Lookup("input")
	asIn := a.ByNode[inN.ID]
	if r := asIn.CompressionRatio(); math.Abs(r-4) > 0.01 {
		t.Errorf("DPR FP8 ratio = %v", r)
	}
}

func TestSSDCWithDPRCompressesValues(t *testing.T) {
	g := vggBlock(t)
	plain := Analyze(g, Config{SSDC: true})
	withDPR := Analyze(g, Config{SSDC: true, DPR: floatenc.FP8})
	r1 := g.Lookup("relu1")
	pb := plain.ByNode[r1.ID].EncodedBytes
	db := withDPR.ByNode[r1.ID].EncodedBytes
	if db >= pb {
		t.Fatalf("DPR over SSDC must shrink values: %d vs %d", db, pb)
	}
	// The savings must be value-array-only: meta (1 byte/nnz + rowptr)
	// untouched. With FP8 values 4B->1B, total ~ nnz*2+rowptr vs nnz*5+rowptr.
	if float64(db) < float64(pb)*0.3 {
		t.Fatalf("savings too large — meta must stay exact: %d vs %d", db, pb)
	}
}

func TestLosslessConfigHasNoDPR(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Lossless())
	for _, as := range a.ByNode {
		if as.Tech == DPR {
			t.Error("Lossless() must not assign DPR")
		}
	}
	// Not every stash is covered by lossless encodings: "Others" remain.
	covered := len(a.ByNode)
	total := 0
	tl := graph.BuildTimeline(g)
	_ = tl
	for _, n := range g.Nodes {
		if graph.OutputStashed(n) {
			total++
		}
	}
	if covered >= total {
		t.Errorf("lossless should leave some stashes unencoded: %d of %d", covered, total)
	}
}

func TestEffectiveStashednessChanges(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Lossless())
	// Baseline: relu2 output stashed. After Binarize, its FP32 form has no
	// backward reader (mask serves ReLU, argmax map serves pool).
	r2 := g.Lookup("relu2")
	if !graph.OutputStashed(r2) {
		t.Fatal("baseline should stash relu2")
	}
	if a.OutputStashed(r2) {
		t.Error("after Binarize, relu2's FP32 output must not be stashed")
	}
}

func TestTechniqueString(t *testing.T) {
	if None.String() != "None" || Binarize.String() != "Binarize" ||
		SSDC.String() != "SSDC" || DPR.String() != "DPR" {
		t.Error("names wrong")
	}
	if Technique(9).String() != "Technique(9)" {
		t.Error("unknown formatting")
	}
}

func TestRuntimeBinarizeRoundTrip(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, Lossless())
	r2 := g.Lookup("relu2")
	as := a.ByNode[r2.ID]
	x := tensor.New(r2.OutShape...)
	x.FillUniform(tensor.NewRNG(3), -1, 1)
	// ReLU output: clamp negatives to zero first.
	x.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	e, err := encodeFresh(Codec{}, as, x)
	if err != nil {
		t.Fatalf("EncodeStashInto: %v", err)
	}
	dec, err := decodeFresh(Codec{}, e)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	for i, v := range x.Data {
		want := float32(0)
		if v > 0 {
			want = 1
		}
		if dec.Data[i] != want {
			t.Fatalf("mask decode[%d] = %v, want %v", i, dec.Data[i], want)
		}
	}
	if e.Bytes() != as.EncodedBytes {
		t.Errorf("runtime bytes %d != planned %d", e.Bytes(), as.EncodedBytes)
	}
}

func TestRuntimeDPRRoundTrip(t *testing.T) {
	g := vggBlock(t)
	a := Analyze(g, LossyLossless(floatenc.FP10))
	inN := g.Lookup("input")
	as := a.ByNode[inN.ID]
	if as.Tech != DPR {
		t.Fatal("expected DPR on the input stash")
	}
	x := tensor.New(inN.OutShape...)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	e, err := encodeFresh(Codec{}, as, x)
	if err != nil {
		t.Fatalf("EncodeStashInto: %v", err)
	}
	dec, err := decodeFresh(Codec{}, e)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	for i, v := range x.Data {
		if dec.Data[i] != floatenc.FP10.Quantize(v) {
			t.Fatalf("DPR decode[%d] = %v, want %v", i, dec.Data[i], floatenc.FP10.Quantize(v))
		}
	}
	if e.Bytes() != as.EncodedBytes {
		t.Errorf("runtime bytes %d != planned %d", e.Bytes(), as.EncodedBytes)
	}
}

func TestEncodeStashNoTechniqueErrors(t *testing.T) {
	if _, err := encodeFresh(Codec{}, &Assignment{Tech: None}, tensor.New(1)); !errors.Is(err, ErrNoTechnique) {
		t.Fatalf("err = %v, want ErrNoTechnique", err)
	}
}

func TestDefaultSparsityModel(t *testing.T) {
	g := vggBlock(t)
	if s := DefaultSparsity(g.Lookup("relu1")); s != DefaultReLUSparsity {
		t.Errorf("relu sparsity = %v", s)
	}
	// Pool after relu: 0.7^4.
	want := math.Pow(DefaultReLUSparsity, 4)
	if s := DefaultSparsity(g.Lookup("pool1")); math.Abs(s-want) > 1e-12 {
		t.Errorf("pool sparsity = %v, want %v", s, want)
	}
	if s := DefaultSparsity(g.Lookup("conv1")); s != 0 {
		t.Errorf("conv sparsity = %v, want 0", s)
	}
}

// TestReadAsStoredReaders pins readAsStored's reader rule on one DPR stash:
// a conv's output read as X by each kind of reader, Binarize off so a
// MaxPool reads its input whole. Conv, FC and BatchNorm decode X an image at
// a time, so the stash takes no decode target; LRN and MaxPool read it
// whole, and so does the loss its own output.
func TestReadAsStoredReaders(t *testing.T) {
	cases := []struct {
		name        string
		reader      func() layers.Op
		needsDecode bool
	}{
		{"BatchNorm", func() layers.Op { return layers.NewBatchNorm() }, false},
		{"Conv", func() layers.Op { return layers.NewConv2D(4, 1, 1, 0) }, false},
		{"FC", func() layers.Op { return layers.NewFC(4) }, false},
		{"LRN", func() layers.Op { return layers.NewLRN(3) }, true},
		{"MaxPool", func() layers.Op { return layers.NewMaxPool(2, 2, 0) }, true},
	}
	for _, c := range cases {
		g := graph.New()
		in := g.MustAdd("input", layers.NewInput(2, 3, 8, 8))
		conv := g.MustAdd("conv", layers.NewConv2D(4, 3, 1, 1), in)
		r := g.MustAdd("reader", c.reader(), conv)
		fc := g.MustAdd("fc", layers.NewFC(4), r)
		loss := g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
		a := Analyze(g, Config{DPR: floatenc.FP16})
		as := a.ByNode[conv.ID]
		if as == nil || as.Tech != DPR {
			t.Fatalf("%s: conv's stash %+v, want a DPR assignment", c.name, as)
		}
		if as.NeedsDecode != c.needsDecode {
			t.Errorf("%s reading a DPR stash: NeedsDecode %t, want %t", c.name, as.NeedsDecode, c.needsDecode)
		}
		if ls := a.ByNode[loss.ID]; ls == nil || !ls.NeedsDecode {
			t.Errorf("%s: the loss's stash %+v, want one that needs a decode", c.name, ls)
		}
	}
}
