package encoding

import (
	"strings"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// adaptiveTestGraph builds a small conv → relu → conv → relu → pool → fc →
// loss graph: sparse stashes that feed conv readers (where the paper puts
// SSDC) next to dense stashes that are not.
func adaptiveTestGraph() *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(8, 3, 16, 16))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(8, 3, 1, 1), r1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r2)
	fc := g.MustAdd("fc", layers.NewFC(4), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g
}

// TestParseTechnique pins the registry's name surface: every registered
// technique round-trips through its name case-insensitively, "none" is the
// distinguished empty selection, and unknown names — SSDC's, a planning
// model the runtime cannot hold, included — are typed errors.
func TestParseTechnique(t *testing.T) {
	regs := RegisteredTechniques()
	want := []Technique{Binarize, DPR, ZVC}
	if len(regs) != len(want) {
		t.Fatalf("RegisteredTechniques = %v, want %d techniques", regs, len(want))
	}
	for i, tech := range want {
		if regs[i] != tech {
			t.Fatalf("RegisteredTechniques[%d] = %v, want %v", i, regs[i], tech)
		}
	}
	for _, tech := range regs {
		for _, name := range []string{tech.String(), "  "} {
			if name == "  " {
				continue
			}
			got, err := ParseTechnique(name)
			if err != nil || got != tech {
				t.Errorf("ParseTechnique(%q) = %v, %v; want %v", name, got, err, tech)
			}
		}
	}
	if got, err := ParseTechnique("zVc"); err != nil || got != ZVC {
		t.Errorf("ParseTechnique(zVc) = %v, %v; want ZVC", got, err)
	}
	if got, err := ParseTechnique("none"); err != nil || got != None {
		t.Errorf("ParseTechnique(none) = %v, %v; want None", got, err)
	}
	// A removed technique's name is as unknown as a made-up one, and the
	// error names the accepted set.
	for _, name := range []string{"lzma", "entropy", "Entropy", "ssdc", "SSDC"} {
		_, err := ParseTechnique(name)
		if err == nil || !strings.Contains(err.Error(), "(want none|binarize|dpr|zvc)") {
			t.Errorf("ParseTechnique(%q) error = %v, want one naming the accepted set", name, err)
		}
		if _, err := (Config{}).WithTechniqueName(name); err == nil || !strings.Contains(err.Error(), "|zvc|adaptive") {
			t.Errorf("WithTechniqueName(%q) error = %v, want one naming the accepted set", name, err)
		}
	}
}

// TestConfigWithTechnique pins the consolidated-flag semantics: narrowing
// to one technique clears every other selection, DPR defaults to FP16 when
// the base left precision off, and None disables everything.
func TestConfigWithTechnique(t *testing.T) {
	base := LossyLossless(floatenc.FP10)
	base.AdaptiveSet = AdaptiveAll()
	for _, tech := range []Technique{Binarize, SSDC, ZVC} {
		c := base.WithTechnique(tech)
		on := map[Technique]bool{Binarize: c.Binarize, SSDC: c.SSDC, ZVC: c.ZVC}
		for k, v := range on {
			if v != (k == tech) {
				t.Errorf("WithTechnique(%v): %v selection = %v", tech, k, v)
			}
		}
		if len(c.AdaptiveSet) != 0 {
			t.Errorf("WithTechnique(%v) kept the adaptive set", tech)
		}
		if c.DPR != floatenc.FP10 {
			t.Errorf("WithTechnique(%v) changed the base DPR format to %v", tech, c.DPR)
		}
		if !c.Enabled() {
			t.Errorf("WithTechnique(%v).Enabled() = false", tech)
		}
	}
	if c := (Config{DPR: floatenc.FP32}).WithTechnique(DPR); c.DPR != floatenc.FP16 {
		t.Errorf("WithTechnique(DPR) over an FP32 base = %v, want the FP16 default", c.DPR)
	}
	if c := base.WithTechnique(None); c.Enabled() {
		t.Errorf("WithTechnique(None).Enabled() = true: %+v", c)
	}
	if (Config{}).Enabled() {
		t.Error("zero Config reports Enabled")
	}
}

// TestPlanBytesModels sanity-checks the planning cost models the adaptive
// selector ranks by: ZVC shrinks with sparsity and beats dense FP32 on a
// sparse map; None prices at dense FP32.
func TestPlanBytesModels(t *testing.T) {
	const n = 100000
	dense := int64(n) * 4
	if b := PlanBytes(None, n, 0.9, floatenc.FP32); b != dense {
		t.Errorf("PlanBytes(None) = %d, want dense %d", b, dense)
	}
	sparse := PlanBytes(ZVC, n, 0.9, floatenc.FP32)
	densier := PlanBytes(ZVC, n, 0.1, floatenc.FP32)
	if sparse >= densier || sparse >= dense {
		t.Errorf("zvc model: 90%% sparse = %d, 10%% sparse = %d, dense = %d; want strictly decreasing", sparse, densier, dense)
	}
	if zfp16 := PlanBytes(ZVC, n, 0.9, floatenc.FP16); zfp16 >= sparse {
		t.Errorf("zvc model ignores the packed-value credit: FP16 %d >= FP32 %d", zfp16, sparse)
	}
	// The roofline overheads: ZVC costs its extra passes, Binarize is a
	// net saving (the mask replaces two dense backward reads), and None
	// leaves the accumulator untouched.
	stream := func(b int64) float64 { return float64(b) }
	if c := AddOverheadTime(ZVC, 0, stream, dense, dense/4); c <= 0 {
		t.Errorf("overhead(ZVC) = %g, want a cost (positive)", c)
	}
	if c := AddOverheadTime(Binarize, 0, stream, dense, dense/32); c >= 0 {
		t.Errorf("overhead(Binarize) = %g, want a net saving (negative)", c)
	}
	if c := AddOverheadTime(None, 1.5, stream, dense, dense); c != 1.5 {
		t.Errorf("overhead(None) moved the accumulator to %g", c)
	}
}

// TestAnalyzeAdaptiveSet pins the one container rule of the adaptive tier:
// an adaptive set resolves into the ZVC flag by membership, so AdaptiveAll()
// plans no SSDC stash, and a sparse stash is ZVC exactly when ZVC's
// prediction beats the dense stash at the format; every other member
// changes nothing, so each set takes the fixed walk with ZVC set by it.
func TestAnalyzeAdaptiveSet(t *testing.T) {
	graphs := []*graph.Graph{adaptiveTestGraph(), networks.TinyCNN(4, 8), networks.TinyVGG(2, 8)}
	nearlyDense := func(n *graph.Node) float64 {
		if sparseStash(n) {
			return 0.02
		}
		return 0
	}
	var bases []Config
	for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP8} {
		dense := LossyLossless(f)
		dense.Sparsity = nearlyDense
		bases = append(bases, LossyLossless(f), dense, Config{DPR: f})
	}
	zvc := 0
	for _, g := range graphs {
		for _, base := range bases {
			cfg := base
			cfg.AdaptiveSet = AdaptiveAll()
			a := Analyze(g, cfg)
			for _, n := range g.Nodes {
				as := a.ByNode[n.ID]
				if as == nil || as.Tech == Binarize {
					continue
				}
				if as.Tech == SSDC {
					t.Fatalf("%s: AdaptiveAll() assigned SSDC", n.Name)
				}
				if !sparseStash(n) {
					continue
				}
				elems := n.OutShape.NumElements()
				beats := PlanBytes(ZVC, elems, a.Config.Sparsity(n), cfg.DPR) < cfg.DPR.PackedBytes(elems)
				if (as.Tech == ZVC) != beats {
					t.Errorf("%s at %v: assigned %v, ZVC beats the dense stash: %v", n.Name, cfg.DPR, as.Tech, beats)
				}
				if as.Tech == ZVC {
					zvc++
				}
			}

			// Every set resolves to the fixed walk with ZVC by membership.
			for _, c := range []struct {
				set []Technique
				zvc bool
			}{
				{AdaptiveAll(), true},
				{[]Technique{ZVC}, true},
				{[]Technique{DPR}, false},
				{[]Technique{SSDC}, false},
				{[]Technique{SSDC, ZVC, DPR}, true},
			} {
				cfg.AdaptiveSet = c.set
				fixed := base
				fixed.ZVC = c.zvc
				got, want := Analyze(g, cfg), Analyze(g, fixed)
				for _, n := range g.Nodes {
					ga, wa := got.ByNode[n.ID], want.ByNode[n.ID]
					if (ga == nil) != (wa == nil) || ga != nil && *ga != *wa {
						t.Errorf("set %v, %s: assigned %+v, the fixed walk %+v", c.set, n.Name, ga, wa)
					}
				}
			}
		}
	}
	if zvc == 0 {
		t.Fatal("no ZVC assignment: the sweep misses the technique")
	}
}

// TestAdaptiveFallbackOneHop forces the runtime degradation path: a fully
// dense map planned as ZVC fails the cost guard and is rebuilt as dense
// DPR, with fellBack set and the stash still decoding bit-exact; a sparse
// map keeps its primary.
func TestAdaptiveFallbackOneHop(t *testing.T) {
	rng := tensor.NewRNG(23)
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	dense, sparse := tensor.New(4096), tensor.New(4096)
	for i := range dense.Data {
		dense.Data[i] = rng.Float32() + 0.25 // dense, incompressible
	}
	copy(sparse.Data, randStash(rng, 4096, 0.8))
	as := &Assignment{Tech: ZVC, Format: floatenc.FP32}
	e := &EncodedStash{}
	fellBack, err := c.EncodeStashAdaptiveInto(e, as, dense)
	if err != nil {
		t.Fatalf("adaptive encode: %v", err)
	}
	if !fellBack || e.Tech != DPR {
		t.Fatalf("dense data planned as ZVC: fellBack=%v tech=%v, want the dense DPR fallback", fellBack, e.Tech)
	}
	c.Seal(e)
	dec, err := decodeFresh(c, e)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dense.Data {
		if dec.Data[i] != v {
			t.Fatalf("dense fallback decode[%d] = %v, want %v", i, dec.Data[i], v)
		}
	}

	fellBack, err = c.EncodeStashAdaptiveInto(e, as, sparse)
	if err != nil {
		t.Fatalf("sparse adaptive encode: %v", err)
	}
	if fellBack || e.Tech != ZVC {
		t.Fatalf("sparse stash planned as ZVC: fellBack=%v tech=%v, want ZVC", fellBack, e.Tech)
	}
}
