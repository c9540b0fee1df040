package layers_test

import (
	"fmt"
	"math"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/layers"
	"gist/internal/tensor"
)

// TestDiffBatchNormStored holds BatchNormOp's backward with X read from a
// real container as stored (OpenStored: DPR at FP16 and FP32, ZVC) to the
// backward on that container's decode as In[0], bit for bit: dX, dGamma and
// dBeta. The shapes cover one image, odd spatial sizes and more channels
// than images; the scratch runs from none and shorter than one image (the
// operator allocates its own) through exactly one image to longer.
func TestDiffBatchNormStored(t *testing.T) {
	containers := []*encoding.Assignment{
		{Tech: encoding.DPR, Format: floatenc.FP16},
		{Tech: encoding.DPR, Format: floatenc.FP32},
		{Tech: encoding.ZVC, Format: floatenc.FP16},
	}
	var cdc encoding.Codec
	for _, shape := range []tensor.Shape{{1, 3, 5, 5}, {2, 5, 3, 7}, {3, 8, 4, 4}, {6, 2, 5, 3}} {
		image := shape.NumElements() / shape[0]
		for _, zeros := range []float64{0, 0.75} {
			rng := tensor.NewRNG(uint64(31 + shape[1]))
			x := tensor.New(shape...)
			for i := range x.Data {
				if v := float32(rng.NormFloat64()); rng.Float64() >= zeros {
					x.Data[i] = v + 0.3
				}
			}
			dy := tensor.New(shape...)
			for i := range dy.Data {
				dy.Data[i] = float32(rng.NormFloat64())
			}
			for _, as := range containers {
				if as.Tech == encoding.ZVC && zeros == 0 {
					continue // a dense map is no ZVC container's
				}
				label := fmt.Sprintf("%v zeros=%.1f %v@%v", shape, zeros, as.Tech, as.Format)
				enc := &encoding.EncodedStash{}
				if err := cdc.EncodeStashInto(enc, as, x); err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				cdc.Seal(enc)
				decoded := tensor.New(shape...)
				if err := cdc.DecodeInto(decoded, enc); err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				want := bnBackward(decoded, dy, layers.BwdCtx{In: []*tensor.Tensor{decoded}})
				for _, scratch := range []int{0, image - 1, image, 2*image + 3} {
					var stored encoding.StoredStash
					if err := cdc.OpenStored(&stored, enc, shape); err != nil {
						t.Fatalf("%s: open: %v", label, err)
					}
					buf := make([]float32, scratch)
					for i := range buf {
						buf[i] = 99
					}
					got := bnBackward(decoded, dy, layers.BwdCtx{In: []*tensor.Tensor{nil}, InStash: &stored, Scratch: buf})
					for i := range want {
						for j := range want[i].Data {
							if a, b := math.Float32bits(got[i].Data[j]), math.Float32bits(want[i].Data[j]); a != b {
								t.Fatalf("%s scratch %d: output %d[%d] = %#08x as stored, %#08x decoded",
									label, scratch, i, j, a, b)
							}
						}
					}
				}
			}
		}
	}
}

// bnBackward runs a training forward of a fresh BatchNormOp on x, for the
// statistics its backward reads, then that backward through ctx (which
// serves X), and returns dX, dGamma and dBeta.
func bnBackward(x, dy *tensor.Tensor, ctx layers.BwdCtx) []*tensor.Tensor {
	op := layers.NewBatchNorm()
	c := x.Shape[1]
	gamma, beta := tensor.New(c), tensor.New(c)
	for i := range gamma.Data {
		gamma.Data[i], beta.Data[i] = 1+float32(i)/4, float32(i)/8
	}
	params := []*tensor.Tensor{gamma, beta}
	aux := map[string]any{}
	op.Forward(&layers.FwdCtx{In: []*tensor.Tensor{x}, Params: params, Out: tensor.New(x.Shape...), Aux: aux, Train: true})
	out := []*tensor.Tensor{tensor.New(x.Shape...), tensor.New(c), tensor.New(c)}
	for _, o := range out {
		o.Fill(99) // Backward writes, it does not accumulate
	}
	ctx.Params, ctx.DOut, ctx.DIn, ctx.DParams, ctx.Aux = params, dy, out[:1], out[1:], aux
	op.Backward(&ctx)
	return out
}
