package layers

import (
	"fmt"
	"math"
	"testing"

	"gist/internal/tensor"
)

// denseReader serves a map held in full as a StashReader, as the encoding
// package's containers serve theirs (FuzzStoredStash holds those to their
// decode): the stand-in that lets the differential walls feed the stash
// path any map.
type denseReader struct {
	x *tensor.Tensor
	p int
}

func (r *denseReader) Shape() tensor.Shape { return r.x.Shape }
func (r *denseReader) Rewind()             { r.p = 0 }

func (r *denseReader) DecodeNext(dst []float32) {
	copy(dst, r.x.Data[r.p:])
	r.p += len(dst)
}

// stashMaps are the X regimes a stash read as stored holds: dense, two
// thirds zero (a ReLU's output), all zero (a dead layer's), ±0 mixed in,
// and one with an infinity and a NaN.
func stashMaps(seed uint64, shape tensor.Shape) map[string]*tensor.Tensor {
	// makeMap works on planes: an FC input is one row of features.
	planes := tensor.Shape{shape[0], 1, 1, shape.NumElements() / shape[0]}
	if len(shape) == 4 {
		planes = shape
	}
	maps := map[string]*tensor.Tensor{}
	for _, k := range []mapKind{mapDense, mapSparse, mapAllZero, mapNegZero} {
		m := makeMap(k, 0, seed, planes)
		m.Shape = shape
		maps[k.String()] = m
	}
	nf := maps[mapSparse.String()].Clone()
	nf.Data[len(nf.Data)/3] = float32(math.Inf(1))
	nf.Data[len(nf.Data)-1] = float32(math.NaN())
	maps["non-finite"] = nf
	return maps
}

// diffStash runs op's backward with X read through a denseReader against
// the same backward on X as a tensor — the path a decoded stash takes —
// and requires every output bit equal, with and without dX, under every X
// regime of stashMaps and for dy and a copy of dy holding an infinity.
func diffStash(t testing.TB, label string, op Op, x, dy *tensor.Tensor, params []*tensor.Tensor, seed uint64) {
	t.Helper()
	dyInf := dy.Clone()
	dyInf.Data[len(dyInf.Data)/2] = float32(math.Inf(-1))
	for name, xs := range stashMaps(seed, x.Shape) {
		for _, g := range []*tensor.Tensor{dy, dyInf} {
			for _, withDX := range []bool{true, false} {
				run := func(ctx BwdCtx) []*tensor.Tensor {
					out := []*tensor.Tensor{tensor.New(x.Shape...)}
					for _, p := range params {
						out = append(out, tensor.New(p.Shape...))
					}
					for _, o := range out {
						o.Fill(99) // Backward writes, it does not accumulate
					}
					ctx.Params, ctx.DOut, ctx.DIn, ctx.DParams = params, g, out[:1], out[1:]
					if !withDX {
						ctx.DIn = []*tensor.Tensor{nil}
					}
					op.Backward(&ctx)
					return out
				}
				want := run(BwdCtx{In: []*tensor.Tensor{xs}})
				scratch := make([]float32, len(xs.Data)) // longer than an image: imagesOf cuts it
				for i := range scratch {
					scratch[i] = 99
				}
				got := run(BwdCtx{In: []*tensor.Tensor{nil}, InStash: &denseReader{x: xs}, Scratch: scratch})
				for i := range want {
					if i == 0 && !withDX {
						continue
					}
					for j := range want[i].Data {
						if a, b := math.Float32bits(got[i].Data[j]), math.Float32bits(want[i].Data[j]); a != b {
							t.Fatalf("%s x=%s dy-inf=%t dx=%t: output %d[%d] = %#08x from the stash, %#08x from X",
								label, name, g == dyInf, withDX, i, j, a, b)
						}
					}
				}
			}
		}
	}
}

// TestDiffFCStash holds FCOp's stash path to its dense one on 2-d and 4-d
// inputs, with every dY regime.
func TestDiffFCStash(t *testing.T) {
	for _, shape := range []tensor.Shape{{3, 70}, {2, 4, 6, 5}, {1, 600}} {
		op := NewFC(5)
		features := shape.NumElements() / shape[0]
		w, b := randTensor(11, 5, features), randTensor(12, 5)
		for kind := mapKind(0); kind < numMapKinds; kind++ {
			dy := makeMap(kind, 0.5, 13, tensor.Shape{shape[0], 5, 1, 1})
			dy.Shape = tensor.Shape{shape[0], 5}
			x := randTensor(14, shape...)
			diffStash(t, fmt.Sprintf("fc %v dy=%v", shape, kind), op, x, dy, []*tensor.Tensor{w, b}, 15)
		}
	}
}
