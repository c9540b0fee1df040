package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/race"
	"gist/internal/telemetry"
)

// skipIfRace skips the full-training harness tests under `go test -race`:
// single-goroutine minute-scale runs that only time out CI at the race
// detector's ~10x slowdown (the fast tests keep race coverage).
func skipIfRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("full-training harness skipped under -race")
	}
}

func TestFig1StashedDominates(t *testing.T) {
	r := Fig1(DefaultMinibatch)
	for _, net := range []string{"VGG16", "Inception"} {
		stashed := r.Values[net+"/stashed feature map"]
		weights := r.Values[net+"/weights"]
		if stashed <= weights {
			t.Errorf("%s: stashed (%v GB) must dominate weights (%v GB)", net, stashed, weights)
		}
	}
	// Deeper networks need more memory: VGG16 total must dwarf AlexNet's.
	if r.Values["VGG16/total"] < 3*r.Values["AlexNet/total"] {
		t.Errorf("VGG16 total %v should be >> AlexNet %v",
			r.Values["VGG16/total"], r.Values["AlexNet/total"])
	}
	// VGG16 at minibatch 64 should be in the headroom band of a 12 GB
	// card once weights and workspace are included (the paper: it barely
	// fits).
	if r.Values["VGG16/total"] < 4 || r.Values["VGG16/total"] > 14 {
		t.Errorf("VGG16 total = %v GB, want 4-14", r.Values["VGG16/total"])
	}
}

// TestFig1Pinned fingerprints every value of Fig 1 (sorted key, then the
// float64 bits), so a change to the workspace model or the planner that
// moves any GB in the figure shows here. The constant was computed from the
// code before the conv-algorithm model was deleted, when the im2col cap
// on MemoryOptimalWorkspace still came from Conv2D.WorkspaceBytes.
func TestFig1Pinned(t *testing.T) {
	const want = 0xee925312b6c8aa24
	r := Fig1(DefaultMinibatch)
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Values[k])))
	}
	if got := h.Sum64(); got != want {
		t.Errorf("Fig 1 fingerprint %#016x over %d values, want %#016x", got, len(keys), uint64(want))
	}
}

func TestFig3ReLUOutputsDominateStashes(t *testing.T) {
	r := Fig3(DefaultMinibatch)
	// Paper: VGG16 has ~40% ReLU-Pool and ~49% ReLU-Conv (89% total for
	// ReLU outputs).
	rp, rc := r.Values["VGG16/relu-pool"], r.Values["VGG16/relu-conv"]
	if rp+rc < 0.7 {
		t.Errorf("VGG16 ReLU share = %v, want > 0.7", rp+rc)
	}
	if rp < 0.25 || rp > 0.55 {
		t.Errorf("VGG16 ReLU-Pool share = %v, want ~0.4", rp)
	}
	// Fractions sum to 1 for every network.
	for _, net := range []string{"AlexNet", "NiN", "Overfeat", "VGG16", "Inception", "ResNet"} {
		sum := r.Values[net+"/relu-pool"] + r.Values[net+"/relu-conv"] + r.Values[net+"/others"]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", net, sum)
		}
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"Binarize", "Sparse Storage", "Delayed Precision", "Inplace"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig8HeadlineNumbers(t *testing.T) {
	r := Fig8(DefaultMinibatch)
	avgLL, avgLY := r.Values["average/lossless"], r.Values["average/lossy"]
	// Paper: lossless avg 1.4x; lossless+lossy avg 1.8x, up to 2x. Allow
	// a band around each (substrate differences shift absolute numbers).
	if avgLL < 1.2 || avgLL > 1.9 {
		t.Errorf("lossless avg MFR = %v, want ~1.4", avgLL)
	}
	if avgLY < 1.5 || avgLY > 2.6 {
		t.Errorf("lossy avg MFR = %v, want ~1.8", avgLY)
	}
	if avgLY <= avgLL {
		t.Error("lossy must improve on lossless")
	}
	// Per-network MFRs all exceed 1.
	for _, net := range []string{"AlexNet", "NiN", "Overfeat", "VGG16", "Inception", "ResNet"} {
		if r.Values[net+"/lossless"] <= 1 {
			t.Errorf("%s lossless MFR = %v", net, r.Values[net+"/lossless"])
		}
	}
}

func TestFig9OverheadSmall(t *testing.T) {
	r := Fig9(DefaultMinibatch)
	if avg := r.Values["average/lossy"]; avg < 0 || avg > 0.10 {
		t.Errorf("average Gist overhead = %v, want ~4%%", avg)
	}
	if ll, ly := r.Values["average/lossless"], r.Values["average/lossy"]; ly < ll {
		t.Errorf("lossy overhead %v must be >= lossless %v", ly, ll)
	}
}

func TestFig10EncodingIsolation(t *testing.T) {
	r := Fig10(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "VGG16"} {
		ssdc, bin := r.Values[net+"/ssdc"], r.Values[net+"/binarize"]
		both := r.Values[net+"/both"]
		if ssdc < 1 || bin < 1 {
			t.Errorf("%s: isolated encodings must not hurt: ssdc %v, binarize %v", net, ssdc, bin)
		}
		if both < ssdc || both < bin {
			t.Errorf("%s: combined (%v) must beat each alone (%v, %v)", net, both, ssdc, bin)
		}
	}
	// Binarize is the bigger lever on AlexNet (large ReLU-Pool share).
	if r.Values["AlexNet/binarize"] <= r.Values["AlexNet/ssdc"] {
		t.Error("AlexNet: Binarize should beat SSDC in isolation")
	}
}

func TestFig11BinarizeIsAWin(t *testing.T) {
	r := Fig11(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "VGG16", "Inception"} {
		if r.Values[net+"/binarize"] > 0.001 {
			t.Errorf("%s: Binarize overhead %v should be <= ~0", net, r.Values[net+"/binarize"])
		}
		if r.Values[net+"/ssdc"] < 0 || r.Values[net+"/ssdc"] > 0.12 {
			t.Errorf("%s: SSDC overhead %v out of band", net, r.Values[net+"/ssdc"])
		}
	}
}

func TestFig13DPRBands(t *testing.T) {
	r := Fig13(DefaultMinibatch)
	// Paper's worked numbers: AlexNet 1.18x at FP16 and 1.48x at FP8.
	if v := r.Values["AlexNet/fp16"]; v < 1.1 || v > 1.3 {
		t.Errorf("AlexNet FP16 MFR = %v, want ~1.18", v)
	}
	if v := r.Values["AlexNet/smallest"]; v < 1.3 || v > 1.6 {
		t.Errorf("AlexNet FP8 MFR = %v, want ~1.48", v)
	}
	// Smaller formats can never compress less.
	for _, net := range []string{"AlexNet", "NiN", "Overfeat", "Inception", "ResNet"} {
		if r.Values[net+"/smallest"] < r.Values[net+"/fp16"] {
			t.Errorf("%s: smallest format must be >= FP16 MFR", net)
		}
	}
}

func TestFig15Ordering(t *testing.T) {
	r := Fig15(DefaultMinibatch)
	naive, vdnn, gist := r.Values["average/naive"], r.Values["average/vdnn"], r.Values["average/gist"]
	if !(naive > vdnn && vdnn > gist) {
		t.Fatalf("ordering violated: naive %v, vDNN %v, Gist %v", naive, vdnn, gist)
	}
	// Paper bands: naive ~30%, vDNN ~15%, Gist ~4%.
	if vdnn < 0.05 || vdnn > 0.3 {
		t.Errorf("vDNN avg = %v, want ~15%%", vdnn)
	}
	if gist > 0.10 {
		t.Errorf("Gist avg = %v, want ~4%%", gist)
	}
}

func TestFig16DeeperBenefitsMore(t *testing.T) {
	skipIfRace(t)
	r := Fig16()
	s509 := r.Values["ResNet-509/speedup"]
	s1202 := r.Values["ResNet-1202/speedup"]
	if s1202 <= s509 {
		t.Fatalf("deeper should benefit more: 509 %v vs 1202 %v", s509, s1202)
	}
	// Paper: 22% for ResNet-1202; accept 10-40%.
	if s1202 < 1.10 || s1202 > 1.40 {
		t.Errorf("ResNet-1202 speedup = %v, want ~1.22", s1202)
	}
	// Gist must at least double the minibatch at every depth.
	for _, net := range []string{"ResNet-509", "ResNet-851", "ResNet-1202"} {
		if r.Values[net+"/mb-gist"] < 2*r.Values[net+"/mb-base"] {
			t.Errorf("%s: gist mb %v should be >= 2x base %v", net,
				r.Values[net+"/mb-gist"], r.Values[net+"/mb-base"])
		}
	}
}

func TestFig17DynamicBands(t *testing.T) {
	r := Fig17(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "NiN", "Overfeat", "VGG16", "Inception", "ResNet"} {
		dyn := r.Values[net+"/dynamic"]
		ll := r.Values[net+"/lossless"]
		ly := r.Values[net+"/lossy"]
		opt := r.Values[net+"/optimized"]
		if !(dyn >= 1 && ll > dyn && ly > ll && opt >= ly) {
			t.Errorf("%s: ordering violated: dyn %v, ll %v, ly %v, opt %v", net, dyn, ll, ly, opt)
		}
	}
	// Paper: dynamic avg ~1.2x; optimized up to 4.1x.
	var dynSum, optMax float64
	nets := []string{"AlexNet", "NiN", "Overfeat", "VGG16", "Inception", "ResNet"}
	for _, net := range nets {
		dynSum += r.Values[net+"/dynamic"]
		if r.Values[net+"/optimized"] > optMax {
			optMax = r.Values[net+"/optimized"]
		}
	}
	if avg := dynSum / float64(len(nets)); avg < 1.05 || avg > 1.5 {
		t.Errorf("dynamic avg = %v, want ~1.2", avg)
	}
	if optMax < 3 || optMax > 6 {
		t.Errorf("optimized max = %v, want ~4.1", optMax)
	}
}

func TestFig12AccuracyStory(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("training run")
	}
	r := Fig12(DefaultTrainScale())
	base := r.Values["Baseline-FP32/accuracy-loss"]
	for _, cfg := range []string{"Gist-FP16", "Gist-FP10", "Gist-FP8"} {
		if dpr := r.Values[cfg+"/accuracy-loss"]; dpr > base+0.15 {
			t.Errorf("%s accuracy loss %v deviates from FP32 %v", cfg, dpr, base)
		}
	}
	// Part B: immediate-reduction forward error must be present at depth 1
	// and larger by depth 10, and coarser formats must err more.
	d1 := r.Values["fwderr/fp8/depth1"]
	d10 := r.Values["fwderr/fp8/depth10"]
	if d1 <= 0 {
		t.Fatal("All-FP8 must deviate at depth 1")
	}
	if d10 <= 2*d1 {
		t.Errorf("FP8 error should compound: depth1 %v, depth10 %v", d1, d10)
	}
	if r.Values["fwderr/fp16/depth10"] >= r.Values["fwderr/fp10/depth10"] ||
		r.Values["fwderr/fp10/depth10"] >= r.Values["fwderr/fp8/depth10"] {
		t.Error("coarser formats must inject more forward error")
	}
}

func TestForwardErrorByDepthDeterministic(t *testing.T) {
	a := ForwardErrorByDepth(4, 9)
	b := ForwardErrorByDepth(4, 9)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("rows = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward-error study must be deterministic")
		}
	}
}

func TestFig14CompressionOverTime(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("training run")
	}
	r := Fig14(DefaultSparsityScale())
	if len(r.Values) == 0 {
		t.Fatal("no sparsity series")
	}
	// Every recorded ratio must be positive, and at least one layer must
	// show a ratio above 1 (compression effective).
	above1 := false
	for k, v := range r.Values {
		if v <= 0 {
			t.Fatalf("%s: ratio %v", k, v)
		}
		if v > 1 {
			above1 = true
		}
	}
	if !above1 {
		t.Error("no layer ever compressed")
	}
}

// TestRatioTallyDeterministic pins the best-technique tally of the ratio
// shootout: every layer is won by exactly one technique, and an exact tie
// (ZVC against ZVC+FP16 on a layer quantization does not change) goes to the
// technique listed first, so two runs print the same report.
func TestRatioTallyDeterministic(t *testing.T) {
	skipIfRace(t)
	s := DefaultRatioScale()
	s.Steps = 5
	a, b := ExtRatio(s), ExtRatio(s)
	if a.String() != b.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a, b)
	}
	layers, wins := 0, 0.0
	for k, v := range a.Values {
		switch {
		case strings.HasPrefix(k, "wins/"):
			wins += v
		case strings.HasSuffix(k, "/DPR-"+s.Format.String()): // dense DPR never refuses a layer
			layers++
		}
	}
	if layers == 0 || wins != float64(layers) {
		t.Fatalf("%v wins over %d layers", wins, layers)
	}
}

func TestLookupAndIDs(t *testing.T) {
	ids := IDs()
	for _, id := range ids {
		if run, err := Lookup(id, Settings{}); run == nil || err != nil {
			t.Errorf("Lookup(%q) = %v", id, err)
		}
	}
	if !slices.Contains(ids, "robust") || ids[len(ids)-1] != "summary" {
		t.Errorf("IDs() = %v: want robust listed and summary last", ids)
	}
	if _, err := Lookup("nope", Settings{}); err == nil {
		t.Error("unknown ID should be an error")
	}
	if _, err := Lookup("FIG8", Settings{}); err != nil {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := Lookup("fig8", Settings{Technique: "bogus"}); err == nil {
		t.Error("unknown technique should be an error")
	}
}

// TestRobustHonoursStashBudget runs the robust study under a stash budget
// far below its hot peak: the executor's store must spill (evictions > 0),
// and every injected fault must still reconcile.
func TestRobustHonoursStashBudget(t *testing.T) {
	skipIfRace(t)
	tel := telemetry.New()
	run, err := Lookup("robust", Settings{Steps: 20, StashBudget: 2048, SpillDir: t.TempDir(), Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	r := run()
	if ev := tel.Counter("stash.store.evictions").Value(); ev == 0 {
		t.Error("robust under a 2 KB stash budget evicted nothing")
	}
	if r.Values["robust/ok"] != 1 {
		t.Errorf("robust under a stash budget did not reconcile:\n%s", r)
	}
}

func TestPaperDPRFormats(t *testing.T) {
	if PaperDPRFormat("AlexNet") != floatenc.FP8 ||
		PaperDPRFormat("VGG16") != floatenc.FP16 ||
		PaperDPRFormat("Inception") != floatenc.FP10 {
		t.Error("per-network formats must match Figure 12's findings")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.add("line %d", 1)
	r.set("b", 2)
	r.set("a", 1)
	if !strings.Contains(r.String(), "=== x: t ===") || !strings.Contains(r.String(), "line 1") {
		t.Error("String format")
	}
	keys := r.SortedValueKeys()
	if len(keys) != 2 || keys[0] != "a" {
		t.Errorf("keys = %v", keys)
	}
}

func TestWriteCSV(t *testing.T) {
	r := &Result{ID: "figX"}
	r.set("VGG16/lossless", 1.5)
	r.set("average/lossy", 2.0)
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"experiment,series,metric,value",
		"figX,VGG16,lossless,1.5",
		"figX,average,lossy,2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q in:\n%s", want, got)
		}
	}
}
