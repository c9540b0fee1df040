package train

import (
	"math"
	"slices"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/networks"
	"gist/internal/parallel"
)

// TestTrainingInputReadInPlace: a training Forward whose input stash is
// encoded reads the caller's input tensor in place — its encode settles
// before Forward returns — so the caller may overwrite it right after. The
// wall fills the input with NaN between Forward and Backward and requires
// the losses and weights of the untouched run, bit for bit, at one and four
// codec workers, pooled, and under a stash budget. Every pass the alias does
// not cover still copies: an inference Forward, a ForwardFormat that
// quantizes the copy, an unencoded input (its stash is the copy), and an
// input lent to an inplace ReLU (graph.InplaceEligible lends none today; the
// guard is pinned by lending it by hand).
func TestTrainingInputReadInPlace(t *testing.T) {
	const steps, mb, classes = 4, 4, 4
	configs := []struct {
		name string
		opts func() Options
	}{
		{"workers1", func() Options { return Options{Codec: &encoding.Codec{Pool: parallel.NewPool(1), ChunkElems: 768}} }},
		{"workers4-pooled", func() Options {
			return Options{Codec: &encoding.Codec{Pool: parallel.NewPool(4), ChunkElems: 768}, Pool: bufpool.New()}
		}},
		{"budget", func() Options { return Options{StashBudget: 4096, Pool: bufpool.New()} }},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			run := func(clobber bool) ([]float64, []float32) {
				g := networks.TinyCNN(mb, classes)
				opts := c.opts()
				opts.Seed, opts.Integrity = 5, true
				opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
				e := NewExecutor(g, opts)
				defer e.Close()
				in := g.InputNodes()[0]
				d := NewDataset(classes, 3, 16, 0.4, 6)
				var losses []float64
				for i := 0; i < steps; i++ {
					x, labels := d.Batch(mb)
					e.Forward(x, labels, true)
					if e.Output(in) != x {
						t.Fatal("a training Forward copied an encoded input")
					}
					loss, _ := e.lossOf(labels)
					if clobber {
						x.Fill(float32(math.NaN()))
					}
					if err := e.Backward(); err != nil {
						t.Fatal(err)
					}
					e.SGD(0.05, 0.9, 1e-4)
					losses = append(losses, loss)
				}
				return losses, flatParams(e)
			}
			wantLoss, wantParams := run(false)
			gotLoss, gotParams := run(true)
			if !slices.Equal(gotLoss, wantLoss) {
				t.Fatalf("losses %v after clobbering the input, %v untouched", gotLoss, wantLoss)
			}
			paramsBitsEqual(t, gotParams, wantParams, "clobbered input vs untouched")
		})
	}

	copies := []struct {
		name     string
		training bool
		opts     func(*Options)
	}{
		{"inference", false, func(*Options) {}},
		{"forward-format", true, func(o *Options) { o.ForwardFormat = floatenc.FP16 }},
		{"unencoded", true, func(o *Options) { o.Encodings = nil }},
		{"lent", true, func(*Options) {}},
	}
	for _, c := range copies {
		t.Run("copies/"+c.name, func(t *testing.T) {
			g := networks.TinyCNN(mb, classes)
			opts := Options{Seed: 5, Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))}
			c.opts(&opts)
			e := NewExecutor(g, opts)
			defer e.Close()
			in := g.InputNodes()[0]
			if c.name == "lent" {
				e.lent[in.ID] = true
			}
			x, labels := NewDataset(classes, 3, 16, 0.4, 6).Batch(mb)
			e.Forward(x, labels, c.training)
			if out := e.Output(in); out == x || (opts.ForwardFormat == floatenc.FP32 && !slices.Equal(out.Data, x.Data)) {
				t.Fatal("the pass did not read the input from a copy of it")
			}
			if c.training {
				if err := e.Backward(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
