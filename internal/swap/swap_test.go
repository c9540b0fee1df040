package swap

import (
	"testing"

	"gist/internal/costmodel"
	"gist/internal/graph"
	"gist/internal/networks"
)

func TestNaiveWorseThanVDNNWorseThanBaseline(t *testing.T) {
	d := costmodel.TitanX()
	for _, spec := range []struct {
		name  string
		build func(int) *graph.Graph
	}{
		{"AlexNet", networks.AlexNet},
		{"VGG16", networks.VGG16},
		{"Inception", networks.Inception},
	} {
		g := spec.build(64)
		naive, vdnn := Overheads(d, g)
		if naive <= 0 || vdnn < 0 {
			t.Fatalf("%s: overheads must be nonnegative: naive %v vdnn %v", spec.name, naive, vdnn)
		}
		if vdnn >= naive {
			t.Errorf("%s: vDNN (%v) must beat naive (%v)", spec.name, vdnn, naive)
		}
	}
}

func TestOverheadMagnitudesMatchPaperShape(t *testing.T) {
	// The paper reports naive ~30% average, vDNN ~15% average with a max
	// of 27% (Inception). We require the same ordering and rough bands:
	// naive in [10%, 100%], vDNN in [2%, 60%], on the suite average.
	d := costmodel.TitanX()
	var sumN, sumV float64
	n := 0
	for _, spec := range networks.Suite() {
		g := spec.Build(64)
		naive, vdnn := Overheads(d, g)
		sumN += naive
		sumV += vdnn
		n++
	}
	avgN, avgV := sumN/float64(n), sumV/float64(n)
	if avgN < 0.10 || avgN > 1.0 {
		t.Errorf("avg naive overhead = %.1f%%, want 10-100%%", avgN*100)
	}
	if avgV < 0.02 || avgV > 0.6 {
		t.Errorf("avg vDNN overhead = %.1f%%, want 2-60%%", avgV*100)
	}
	if avgV >= avgN {
		t.Errorf("vDNN avg (%v) must beat naive avg (%v)", avgV, avgN)
	}
}

func TestVDNNStallsOnTransferHeavyGraph(t *testing.T) {
	// With a bandwidth-starved link, even vDNN must show real overhead:
	// the transfers cannot hide behind compute.
	d := costmodel.TitanX()
	d.PCIeBandwidth = 1e9 // strangle the link
	g := networks.VGG16(64)
	_, vdnn := Overheads(d, g)
	if vdnn < 0.5 {
		t.Errorf("vDNN on a 1 GB/s link should be heavily stalled, got %v", vdnn)
	}
}

func TestVDNNNearZeroWithInfiniteLink(t *testing.T) {
	d := costmodel.TitanX()
	d.PCIeBandwidth = 1e15 // effectively free transfers
	g := networks.AlexNet(64)
	naive, vdnn := Overheads(d, g)
	if vdnn > 0.01 {
		t.Errorf("vDNN with free transfers should have ~0 overhead, got %v", vdnn)
	}
	if naive > 0.01 {
		t.Errorf("even naive should be ~0 with free transfers, got %v", naive)
	}
}

func TestStashCollection(t *testing.T) {
	g := networks.VGG16(4)
	tl := graph.BuildTimeline(g)
	st := stashes(g, tl)
	if len(st) == 0 {
		t.Fatal("VGG16 must have stashes")
	}
	for _, s := range st {
		if s.bytes <= 0 {
			t.Fatalf("stash %s has %d bytes", s.node.Name, s.bytes)
		}
		if s.firstBwdUse >= 0 && s.firstBwdUse <= s.lastFwdUse {
			t.Fatalf("stash %s backward use %d before forward use %d",
				s.node.Name, s.firstBwdUse, s.lastFwdUse)
		}
	}
}

func TestCDMABeatsVDNN(t *testing.T) {
	// Compressing PCIe traffic can only shrink transfers: CDMA must be at
	// least as fast as vDNN on every network, and strictly faster where
	// sparse ReLU stashes dominate the traffic.
	d := costmodel.TitanX()
	strict := false
	for _, spec := range networks.Suite() {
		g := spec.Build(64)
		tl := graph.BuildTimeline(g)
		vdnn := VDNNStepTime(d, g, tl)
		cdma := CDMAStepTime(d, g, tl, nil)
		if cdma > vdnn+1e-9 {
			t.Errorf("%s: CDMA (%v) slower than vDNN (%v)", spec.Name, cdma, vdnn)
		}
		if cdma < vdnn-1e-9 {
			strict = true
		}
	}
	if !strict {
		t.Error("CDMA never improved on vDNN")
	}
}

func TestCDMADenseDataNoBenefit(t *testing.T) {
	// With a dense sparsity model, CDMA degenerates to vDNN exactly.
	d := costmodel.TitanX()
	g := networks.AlexNet(16)
	tl := graph.BuildTimeline(g)
	dense := func(*graph.Node) float64 { return 0 }
	if CDMAStepTime(d, g, tl, dense) != VDNNStepTime(d, g, tl) {
		t.Error("dense CDMA must equal vDNN")
	}
}
