package experiments

import (
	"strings"
	"testing"
)

func TestExtRecomputeStory(t *testing.T) {
	r := ExtRecompute(DefaultMinibatch)
	// Recompute's overhead must dwarf Gist's on every network, while both
	// deliver real footprint reductions.
	for _, net := range []string{"AlexNet", "VGG16", "Inception"} {
		rcOvh := r.Values[net+"/recompute-overhead"]
		gOvh := r.Values[net+"/gist-overhead"]
		if rcOvh < 2*gOvh {
			t.Errorf("%s: recompute overhead %v should dwarf Gist's %v", net, rcOvh, gOvh)
		}
		if r.Values[net+"/recompute-mfr"] <= 1 {
			t.Errorf("%s: recompute must still save memory", net)
		}
		if r.Values[net+"/gist-mfr"] <= 1 {
			t.Errorf("%s: gist must save memory", net)
		}
	}
}

func TestExtWorkspaceTradeoff(t *testing.T) {
	r := ExtWorkspace(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "VGG16", "Inception"} {
		memOpt := r.Values[net+"/ws-memopt-gb"]
		perfOpt := r.Values[net+"/ws-perfopt-gb"]
		if memOpt > perfOpt+1e-9 {
			t.Errorf("%s: memory-optimal workspace %v exceeds performance-optimal %v",
				net, memOpt, perfOpt)
		}
		if sp := r.Values[net+"/speedup"]; sp < 1 || sp > 2 {
			t.Errorf("%s: perf-optimal speedup %v out of band", net, sp)
		}
	}
	// VGG16's 3x3 convs make the tradeoff visible: real extra workspace.
	if r.Values["VGG16/ws-perfopt-gb"] <= r.Values["VGG16/ws-memopt-gb"] {
		t.Error("VGG16 should pay real workspace for the fast algorithm")
	}
}

func TestExtCDMAStory(t *testing.T) {
	r := ExtCDMA(DefaultMinibatch)
	for _, net := range []string{"Inception", "ResNet"} {
		vdnn, cdma := r.Values[net+"/vdnn"], r.Values[net+"/cdma"]
		if cdma >= vdnn {
			t.Errorf("%s: CDMA (%v) should beat vDNN (%v) on transfer-bound nets", net, cdma, vdnn)
		}
		if cdma <= 0 {
			t.Errorf("%s: CDMA should still have overhead, got %v", net, cdma)
		}
	}
}

func TestExtEnergyGistWins(t *testing.T) {
	r := ExtEnergy(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "VGG16", "ResNet"} {
		ratio := r.Values[net+"/ratio"]
		if ratio < 2 {
			t.Errorf("%s: swap/gist energy ratio = %v, want >= 2", net, ratio)
		}
		if r.Values[net+"/gist-mj"] <= 0 {
			t.Errorf("%s: gist energy must be positive", net)
		}
	}
}

func TestSummaryAllWithinBand(t *testing.T) {
	skipIfRace(t)
	r := Summary()
	for _, line := range r.Lines[1:] {
		if strings.Contains(line, "off ") {
			t.Errorf("headline metric out of band: %s", line)
		}
	}
	if len(r.Values) < 8 {
		t.Errorf("summary has %d metrics", len(r.Values))
	}
}

func TestExtMinibatchSweepLinearScaling(t *testing.T) {
	r := ExtMinibatchSweep()
	// Footprints double with the minibatch; the MFR is flat.
	b8, b16 := r.Values["mb8/baseline-gb"], r.Values["mb16/baseline-gb"]
	if b16 < 1.9*b8 || b16 > 2.1*b8 {
		t.Errorf("baseline should double: %v -> %v", b8, b16)
	}
	m8, m128 := r.Values["mb8/mfr"], r.Values["mb128/mfr"]
	if m8 < 0.95*m128 || m8 > 1.05*m128 {
		t.Errorf("MFR should be minibatch independent: %v vs %v", m8, m128)
	}
}

func TestExtSparsitySweepMonotone(t *testing.T) {
	r := ExtSparsitySweep()
	// SSDC MFR must be monotone nondecreasing from 50% sparsity upward.
	prev := 0.0
	for _, key := range []string{"s50", "s70", "s80", "s90"} {
		mfr := r.Values[key+"/mfr"]
		if mfr < prev {
			t.Errorf("%s: MFR %v below previous %v", key, mfr, prev)
		}
		prev = mfr
	}
	// At 90% sparsity the plan must clearly win.
	if r.Values["s90/mfr"] < 1.15 {
		t.Errorf("90%% sparsity MFR = %v", r.Values["s90/mfr"])
	}
	// Below break-even the analyzer skips SSDC: MFR exactly 1.
	if r.Values["s10/mfr"] != 1 {
		t.Errorf("10%% sparsity MFR = %v, want 1 (skipped)", r.Values["s10/mfr"])
	}
}

func TestExtAlgoSelectConvertsMemoryToSpeed(t *testing.T) {
	r := ExtAlgoSelect(DefaultMinibatch)
	for _, net := range []string{"AlexNet", "VGG16", "ResNet"} {
		if r.Values[net+"/freed-gb"] <= 0 {
			t.Errorf("%s: no memory freed", net)
		}
		if r.Values[net+"/conv-speedup"] < 1 {
			t.Errorf("%s: conv speedup below 1", net)
		}
		if r.Values[net+"/net-change"] >= 0 {
			t.Errorf("%s: net change %v should be negative (faster)",
				net, r.Values[net+"/net-change"])
		}
	}
}

func TestExtDistributedDeterminism(t *testing.T) {
	r := ExtDistributed(8, 2)
	for _, net := range []string{"TinyCNN", "TinyCNN-enc", "TinyVGG"} {
		if r.Values[net+"/deterministic"] != 1 {
			t.Errorf("%s: replica counts disagreed on the trained weights", net)
		}
		loss := r.Values[net+"/final-loss"]
		if loss != loss || loss <= 0 {
			t.Errorf("%s: final loss %v not a positive finite value", net, loss)
		}
	}
}

// TestExtRealizedMatchesPlan pins the realised-footprint table's two claims:
// without encodings the observed FP32 peak is the planner's, to the byte, and
// on the one network deep enough for encodings to pay at this scale the
// measured footprint ratio is above one.
func TestExtRealizedMatchesPlan(t *testing.T) {
	skipIfRace(t)
	r := ExtRealized()
	for _, net := range []string{"TinyCNN", "TinyVGG", "ResNetCIFAR-20"} {
		if got, want := r.Values[net+"/none/observed-peak"], r.Values[net+"/none/planned-peak"]; got != want || want == 0 {
			t.Errorf("%s: observed FP32 peak %v, planned %v", net, got, want)
		}
	}
	if mfr := r.Values["ResNetCIFAR-20/lossy-fp16/mfr"]; mfr <= 1.2 {
		t.Errorf("ResNetCIFAR-20 lossy-fp16: realised MFR %v, want above 1.2", mfr)
	}
}
