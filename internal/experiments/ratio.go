package experiments

// The compression-ratio shootout: real activations from briefly trained
// networks, encoded per layer with every lossless-tier technique, reporting
// the measured compression ratio of each: where ZVC beats SSDC, and where
// everything loses to the dense DPR stash. SSDC, which the runtime does not
// hold, is priced exactly from the layer's nonzero count.

import (
	"errors"
	"fmt"
	"sort"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/train"
)

// RatioScale sizes the ratio shootout runs.
type RatioScale struct {
	Classes   int
	Minibatch int
	// Steps trains each network briefly first so the activations carry
	// realistic (post-warmup) sparsity rather than random-weight noise.
	Steps    int
	LR       float32
	NoiseStd float64
	Seed     uint64
	// Format is the DPR format layered under the quantized columns.
	Format floatenc.Format
}

// DefaultRatioScale trains each network for a few seconds.
func DefaultRatioScale() RatioScale {
	return RatioScale{
		Classes: 4, Minibatch: 8, Steps: 60, LR: 0.05, NoiseStd: 0.4,
		Seed: 42, Format: floatenc.FP16,
	}
}

// ExtRatio runs the per-layer × per-technique compression-ratio shootout on
// TinyCNN and TinyVGG: after a short training run, one forward pass's
// stashed feature maps are encoded through the real codecs at every
// lossless-tier technique — SSDC sized by encoding.SSDCBytes from the
// map's nonzero count — and the measured ratios are tabulated. "-" marks a
// technique whose cost guard refused the layer (the encoded form would not
// have beaten the dense alternative).
func ExtRatio(s RatioScale) *Result {
	r := &Result{ID: "ratio", Title: "Measured per-layer compression ratio by technique"}
	type netSpec struct {
		name    string
		build   func(mb, classes int) *graph.Graph
		imgSize int
	}
	nets := []netSpec{
		{"TinyCNN", networks.TinyCNN, 16},
		{"TinyVGG", networks.TinyVGG, 32},
	}
	type techSpec struct {
		label string
		tech  encoding.Technique
		f     floatenc.Format
	}
	techs := []techSpec{
		{"SSDC", encoding.SSDC, floatenc.FP32},
		{"ZVC", encoding.ZVC, floatenc.FP32},
		{"ZVC+" + s.Format.String(), encoding.ZVC, s.Format},
		{"DPR-" + s.Format.String(), encoding.DPR, s.Format},
	}

	cdc := encoding.DefaultCodec()
	enc := &encoding.EncodedStash{} // one container, re-encoded per cell

	wins := map[string]int{} // layers each technique wins outright
	for _, net := range nets {
		g := net.build(s.Minibatch, s.Classes)
		e := train.NewExecutor(g, train.Options{Seed: s.Seed, Pool: bufpool.Shared()})
		d := train.NewDataset(s.Classes, 3, net.imgSize, s.NoiseStd, s.Seed+1)
		train.Run(e, d, train.RunConfig{Minibatch: s.Minibatch, Steps: s.Steps, LR: s.LR})
		x, labels := d.Batch(s.Minibatch)
		e.Forward(x, labels, true)

		// The stash set: every node whose output a backward pass reads.
		a := encoding.Analyze(g, encoding.Config{})
		r.add("")
		header := fmt.Sprintf("%-22s %8s", net.name+" layer", "sparsity")
		for _, ts := range techs {
			header += fmt.Sprintf(" %9s", ts.label)
		}
		r.add("%s", header)
		for _, n := range g.Nodes {
			if !a.OutputStashed(n) {
				continue
			}
			t := e.Output(n)
			if t == nil {
				continue
			}
			zeros := 0
			for _, v := range t.Data {
				if v == 0 {
					zeros++
				}
			}
			sparsity := float64(zeros) / float64(len(t.Data))
			dense := float64(len(t.Data) * 4)
			line := fmt.Sprintf("%-22s %7.1f%%", n.Name, 100*sparsity)
			best, bestRatio := "", 0.0
			for _, ts := range techs {
				var held int64
				var err error
				if ts.tech == encoding.SSDC {
					held = encoding.SSDCBytes(len(t.Data), len(t.Data)-zeros, ts.f)
					if held >= ts.f.PackedBytes(len(t.Data)) {
						err = encoding.ErrStashTooLarge
					}
				} else {
					as := &encoding.Assignment{Node: n, Tech: ts.tech, Format: ts.f}
					err = cdc.EncodeStashInto(enc, as, t)
					held = enc.Bytes()
				}
				if err != nil {
					if errors.Is(err, encoding.ErrStashTooLarge) {
						line += fmt.Sprintf(" %9s", "-")
						continue
					}
					line += fmt.Sprintf(" %9s", "err")
					continue
				}
				ratio := dense / float64(held)
				line += fmt.Sprintf(" %8.2fx", ratio)
				r.set(fmt.Sprintf("%s/%s/%s", net.name, n.Name, ts.label), ratio)
				if ratio > bestRatio { // strict: the first technique listed wins a tie
					best, bestRatio = ts.label, ratio
				}
			}
			wins[best]++
			r.add("%s", line)
		}
		e.Close()
	}

	// Summary: how often each technique wins outright.
	r.add("")
	var labels []string
	for _, ts := range techs {
		labels = append(labels, ts.label)
	}
	sort.Strings(labels)
	for _, l := range labels {
		r.add("best-technique wins: %-10s %d layers", l, wins[l])
		r.set("wins/"+l, float64(wins[l]))
	}
	r.add("(ratios are measured on real activations; encoding.Analyze picks a")
	r.add(" layer's container from its planned sparsity, not from this table)")
	return r
}
