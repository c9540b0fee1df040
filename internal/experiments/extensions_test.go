package experiments

import (
	"strings"
	"testing"
)

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

// TestExtRealizedMatchesPlan pins the realised-footprint table's claims:
// without encodings the observed FP32 peak is the planner's, to the byte,
// and so is Fig 17's optimized plan, which never exceeds the plan; the
// encoded containers hold no more than the plan priced at the measured
// sparsity (a cost guard's fallback holds less); no encoded row's measured
// footprint ratio is below one; and on the one network deep enough for
// encodings to pay at this scale it is above 1.2.
func TestExtRealizedMatchesPlan(t *testing.T) {
	skipIfRace(t)
	r := ExtRealized()
	for _, net := range []string{"TinyCNN", "TinyVGG", "ResNetCIFAR-20"} {
		if got, want := r.Values[net+"/none/observed-peak"], r.Values[net+"/none/planned-peak"]; got != want || want == 0 {
			t.Errorf("%s: observed FP32 peak %v, planned %v", net, got, want)
		}
		for _, enc := range []string{"none", "lossless", "lossy-fp16"} {
			opt, plan := r.Values[net+"/"+enc+"/optimized-peak"], r.Values[net+"/"+enc+"/planned-peak"]
			if opt > plan || opt == 0 || (enc == "none" && opt != plan) {
				t.Errorf("%s %s: optimized plan %v against plan %v", net, enc, opt, plan)
			}
			// The slab packs the measured step, so it is never below its
			// peak; unencoded it is the peak, within the static plan.
			slab, peak, static := r.Values[net+"/"+enc+"/slab"], r.Values[net+"/"+enc+"/observed-peak"], r.Values[net+"/"+enc+"/planned-static"]
			if slab < peak || static < plan || (enc == "none" && (slab != peak || slab > static)) {
				t.Errorf("%s %s: slab %v, observed peak %v, static plan %v, dynamic plan %v", net, enc, slab, peak, static, plan)
			}
			if mfr := r.Values[net+"/"+enc+"/mfr"]; enc != "none" && mfr < 1 {
				t.Errorf("%s %s: realised MFR %v below 1", net, enc, mfr)
			}
			held, priced := r.Values[net+"/"+enc+"/stash-bytes"], r.Values[net+"/"+enc+"/plan-at-measured"]
			if held > priced || held == 0 || (enc == "none" && held != priced) {
				t.Errorf("%s %s: StashBytes %v against the plan at measured sparsity %v", net, enc, held, priced)
			}
		}
	}
	if mfr := r.Values["ResNetCIFAR-20/lossy-fp16/mfr"]; mfr <= 1.2 {
		t.Errorf("ResNetCIFAR-20 lossy-fp16: realised MFR %v, want above 1.2", mfr)
	}
}
