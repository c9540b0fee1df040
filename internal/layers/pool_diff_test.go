package layers

import (
	"math"
	"testing"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// Differential wall for max pooling: MaxPoolOp.Forward/Backward index the
// NCHW planes directly; the Tensor.At/Set loops they replaced live on
// here, verbatim, as the frozen reference. Outputs, the 4-bit argmax map
// and dX must match byte for byte.

func (p *MaxPoolOp) forwardRef(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	n, c, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	argmax := bitpack.NewNibbleArray(y.NumElements())
	idx := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					h0, w0 := yh*p.Stride-p.Pad, yw*p.Stride-p.Pad
					best := float32(0)
					bestSlot := -1
					for kh := 0; kh < p.K; kh++ {
						xh := h0 + kh
						if xh < 0 || xh >= ih {
							continue
						}
						for kw := 0; kw < p.K; kw++ {
							xw := w0 + kw
							if xw < 0 || xw >= iw {
								continue
							}
							v := x.At(ni, ci, xh, xw)
							if bestSlot < 0 || v > best {
								best = v
								bestSlot = kh*p.K + kw
							}
						}
					}
					y.Set(ni, ci, yh, yw, best)
					argmax.Set(idx, uint8(bestSlot))
					idx++
				}
			}
		}
	}
	ctx.Aux[auxKeyArgmax] = argmax
}

func (p *MaxPoolOp) backwardRef(ctx *BwdCtx) {
	dy, dx := ctx.DOut, ctx.DIn[0]
	argmax := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
	n, c, ih, iw := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx.Zero()
	idx := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					slot := int(argmax.Get(idx))
					xh := yh*p.Stride - p.Pad + slot/p.K
					xw := yw*p.Stride - p.Pad + slot%p.K
					if xh >= 0 && xh < ih && xw >= 0 && xw < iw {
						dx.Data[((ni*c+ci)*ih+xh)*iw+xw] += dy.At(ni, ci, yh, yw)
					}
					idx++
				}
			}
		}
	}
}

func TestDiffMaxPool(t *testing.T) {
	cases := []struct {
		name           string
		k, stride, pad int
		n, c, h, w     int
	}{
		{"K2s2", 2, 2, 0, 2, 3, 8, 8},        // every network's pool
		{"K2s2-odd", 2, 2, 0, 1, 2, 7, 5},    // trailing row/column dropped
		{"K3s2p1", 3, 2, 1, 2, 3, 9, 7},      // overlap + padding, h != w
		{"K4s4", 4, 4, 0, 2, 2, 8, 12},       // StashNet's last pool, full 4-bit slots
		{"K3s1", 3, 1, 0, 1, 2, 6, 6},        // overlapping windows: dX accumulates
		{"K3s1p1", 3, 1, 1, 1, 2, 5, 4},      // ... with every edge clipped
		{"K2s1p1", 2, 1, 1, 1, 1, 3, 3},      // window larger than the clipped corner
		{"K4s2p2-tiny", 4, 2, 2, 1, 1, 2, 2}, // window wider than the input
	}
	for ci, cc := range cases {
		t.Run(cc.name, func(t *testing.T) {
			op := &MaxPoolOp{K: cc.k, Stride: cc.stride, Pad: cc.pad}
			x := randTensor(uint64(ci+1), cc.n, cc.c, cc.h, cc.w)
			// Ties, all-negative windows and signed zeros: strict > and the
			// scan order decide all of them.
			for i := range x.Data {
				switch i % 7 {
				case 0:
					x.Data[i] = 0.5
				case 1:
					x.Data[i] = negZero
				case 2:
					x.Data[i] = 0
				}
			}
			outShape, err := op.OutShape([]tensor.Shape{x.Shape})
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual := func(what string, got, want *tensor.Tensor) {
				t.Helper()
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s[%d] = %v, reference %v", what, i, got.Data[i], want.Data[i])
					}
				}
			}
			got, want := tensor.New(outShape...), tensor.New(outShape...)
			got.Fill(99)
			// A recycled argmax container of the wrong size must be resized
			// and fully overwritten.
			stale := bitpack.NewNibbleArray(3)
			gotAux, wantAux := map[string]any{auxKeyArgmax: stale}, map[string]any{}
			op.Forward(&FwdCtx{In: []*tensor.Tensor{x}, Out: got, Aux: gotAux})
			op.forwardRef(&FwdCtx{In: []*tensor.Tensor{x}, Out: want, Aux: wantAux})
			bitsEqual("y", got, want)
			ga, wa := gotAux[auxKeyArgmax].(*bitpack.NibbleArray), wantAux[auxKeyArgmax].(*bitpack.NibbleArray)
			for i := 0; i < want.NumElements(); i++ {
				if ga.Get(i) != wa.Get(i) {
					t.Fatalf("argmax[%d] = %d, reference %d", i, ga.Get(i), wa.Get(i))
				}
			}

			dy := randTensor(uint64(ci+100), outShape...)
			gdx, wdx := tensor.New(x.Shape...), tensor.New(x.Shape...)
			gdx.Fill(99)
			op.Backward(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{gdx}, Aux: gotAux})
			op.backwardRef(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{wdx}, Aux: wantAux})
			bitsEqual("dx", gdx, wdx)
		})
	}
}
