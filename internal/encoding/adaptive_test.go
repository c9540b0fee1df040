package encoding

import (
	"strings"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// adaptiveTestGraph builds a small conv → relu → conv → relu → pool → fc →
// loss graph: sparse stashes that feed conv readers (SSDC-eligible) next to
// dense stashes that are not.
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
// distinguished empty selection, and unknown names are typed errors.
func TestParseTechnique(t *testing.T) {
	regs := RegisteredTechniques()
	want := []Technique{Binarize, SSDC, DPR, ZVC}
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
	for _, name := range []string{"lzma", "entropy", "Entropy"} {
		_, err := ParseTechnique(name)
		if err == nil || !strings.Contains(err.Error(), "none|binarize|ssdc|dpr|zvc") {
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

// TestAnalyzeAdaptiveSet drives the planner's per-layer selection: every
// stashed map gets the minimum-predicted-bytes eligible technique from the
// set, losers that carry runtime cost guards become the fallback chain in
// predicted-size order, and the chosen technique's prediction beats the
// raw stash.
func TestAnalyzeAdaptiveSet(t *testing.T) {
	g := adaptiveTestGraph()
	cfg := Config{DPR: floatenc.FP16, AdaptiveSet: AdaptiveAll()}
	a := Analyze(g, cfg)
	assigned := 0
	for _, n := range g.Nodes {
		as := a.ByNode[n.ID]
		if as == nil {
			continue
		}
		assigned++
		inSet := false
		for _, tech := range cfg.AdaptiveSet {
			if as.Tech == tech {
				inSet = true
			}
		}
		if !inSet {
			t.Errorf("%s: assigned %v, not in the adaptive set", n.Name, as.Tech)
		}
		if as.EncodedBytes >= n.OutShape.Bytes() {
			t.Errorf("%s: predicted %d bytes does not beat the raw %d", n.Name, as.EncodedBytes, n.OutShape.Bytes())
		}
		prev := as.EncodedBytes
		for _, fb := range as.Fallbacks {
			if !runtimeFallback(fb) {
				t.Errorf("%s: fallback %v has no runtime cost guard", n.Name, fb)
			}
			b := PlanBytes(fb, n.OutShape.NumElements(), as.Sparsity, cfg.DPR)
			if b < prev {
				t.Errorf("%s: fallback %v predicted %d bytes, smaller than its predecessor %d", n.Name, fb, b, prev)
			}
			prev = b
		}
		// The winner must actually be the argmin over eligible candidates.
		for _, tech := range cfg.AdaptiveSet {
			if !adaptiveEligible(cfg, n, tech, as.Sparsity) {
				continue
			}
			if b := PlanBytes(tech, n.OutShape.NumElements(), as.Sparsity, cfg.DPR); b < as.EncodedBytes {
				t.Errorf("%s: %v predicts %d bytes, beating the chosen %v at %d",
					n.Name, tech, b, as.Tech, as.EncodedBytes)
			}
		}
	}
	if assigned == 0 {
		t.Fatal("adaptive analysis assigned nothing")
	}
	// Every sparse ReLU stash is planned with a measured sparsity estimate,
	// and one eligible for both guarded techniques — relu1, read by a
	// convolution: SSDC and ZVC — records the loser as its runtime fallback.
	chained := 0
	for _, n := range g.Nodes {
		if n.Kind() != layers.ReLU {
			continue
		}
		as := a.ByNode[n.ID]
		if as == nil {
			t.Errorf("%s: sparse stash left unassigned", n.Name)
			continue
		}
		if as.Sparsity <= 0 {
			t.Errorf("%s: sparse stash planned with sparsity %v", n.Name, as.Sparsity)
		}
		guarded := 0
		for _, tech := range cfg.AdaptiveSet {
			if runtimeFallback(tech) && adaptiveEligible(cfg, n, tech, as.Sparsity) {
				guarded++
			}
		}
		if guarded > 1 {
			chained++
			if len(as.Fallbacks) == 0 {
				t.Errorf("%s: multi-candidate stash has no fallback chain", n.Name)
			}
		}
	}
	if chained == 0 {
		t.Fatal("no stash was eligible for two guarded techniques")
	}
}

// TestAdaptiveFallbackChain forces the runtime degradation path: a stash
// planned as ZVC but fully dense at runtime must fail ZVC's cost guard,
// walk the fallback chain, and land on the terminal dense encode — with
// the stash still decoding correctly.
func TestAdaptiveFallbackChain(t *testing.T) {
	rng := tensor.NewRNG(23)
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	tt := tensor.New(4096)
	for i := range tt.Data {
		tt.Data[i] = rng.Float32() + 0.25 // dense, incompressible
	}
	as := &Assignment{Tech: ZVC, Format: floatenc.FP32, Fallbacks: []Technique{SSDC}}
	e := &EncodedStash{}
	fellBack, err := c.EncodeStashAdaptiveInto(e, as, tt)
	if err != nil {
		t.Fatalf("adaptive encode: %v", err)
	}
	if !fellBack {
		t.Fatal("dense data did not trip the ZVC cost guard")
	}
	if e.Tech != DPR {
		t.Fatalf("fallback chain landed on %v, want the terminal dense DPR", e.Tech)
	}
	c.Seal(e)
	dec, err := decodeFresh(c, e)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tt.Data {
		if dec.Data[i] != v {
			t.Fatalf("dense fallback decode[%d] = %v, want %v", i, dec.Data[i], v)
		}
	}

	// The chain stops at the first fallback whose guard passes: at FP16 a
	// map with 30 % zeros defeats CSR (three bytes a nonzero against two
	// an element) but not ZVC's bitmask, so an SSDC → ZVC chain lands on
	// ZVC rather than dense.
	copy(tt.Data, randStash(rng, 4096, 0.3))
	as2 := &Assignment{Tech: SSDC, Format: floatenc.FP16, Fallbacks: []Technique{ZVC}}
	e3 := &EncodedStash{}
	fellBack, err = c.EncodeStashAdaptiveInto(e3, as2, tt)
	if err != nil {
		t.Fatalf("SSDC → ZVC chain encode: %v", err)
	}
	if !fellBack || e3.Tech != ZVC {
		t.Fatalf("SSDC → ZVC chain: fellBack=%v tech=%v, want fallback onto ZVC", fellBack, e3.Tech)
	}

	// A sparse map with the same chain sticks with the primary.
	copy(tt.Data, randStash(rng, 4096, 0.8))
	e2 := &EncodedStash{}
	fellBack, err = c.EncodeStashAdaptiveInto(e2, as, tt)
	if err != nil {
		t.Fatalf("sparse adaptive encode: %v", err)
	}
	if fellBack || e2.Tech != ZVC {
		t.Fatalf("sparse stash: fellBack=%v tech=%v, want primary ZVC", fellBack, e2.Tech)
	}
}
