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
	inf := float32(math.Inf(1))
	cases := []struct {
		name           string
		k, stride, pad int
		n, c, h, w     int
		x              func(h, w int, v float32) float32 // rewrites X[.., h, w] after the shared fill
		dy             func(i int, g float32) float32    // rewrites dY[i]
		staleLen       int                               // nibbles in the recycled argmax container (default 3)
		rejected       bool                              // OutShape must refuse the shape
	}{
		{name: "K2s2", k: 2, stride: 2, n: 2, c: 3, h: 8, w: 8},                // every network's pool
		{name: "K2s2-odd", k: 2, stride: 2, n: 1, c: 2, h: 7, w: 5},            // trailing row/column dropped
		{name: "K3s2p1", k: 3, stride: 2, pad: 1, n: 2, c: 3, h: 9, w: 7},      // overlap + padding, h != w
		{name: "K4s4", k: 4, stride: 4, n: 2, c: 2, h: 8, w: 12},               // StashNet's last pool, full 4-bit slots
		{name: "K3s1", k: 3, stride: 1, n: 1, c: 2, h: 6, w: 6},                // overlapping windows: dX accumulates
		{name: "K3s1p1", k: 3, stride: 1, pad: 1, n: 1, c: 2, h: 5, w: 4},      // ... with every edge clipped
		{name: "K2s1p1", k: 2, stride: 1, pad: 1, n: 1, c: 1, h: 3, w: 3},      // window larger than the clipped corner
		{name: "K4s2p2-tiny", k: 4, stride: 2, pad: 2, n: 1, c: 1, h: 2, w: 2}, // window wider than the input
		// Stride == K without a whole window in the input: convOut gives
		// one clipped window per short side, which is not a tiling.
		{name: "K2s2-short-side", k: 2, stride: 2, n: 1, c: 2, h: 1, w: 5},
		{name: "K3s3-short-side", k: 3, stride: 3, n: 1, c: 1, h: 7, w: 2},
		// A window wholly in padding has no tap to take its argmax from.
		{name: "K2s2p2-allpad", k: 2, stride: 2, pad: 2, n: 1, c: 1, h: 4, w: 4, rejected: true},
		// A NaN first tap is never replaced; payloads must survive into Y.
		{name: "K2s2-nan-first", k: 2, stride: 2, n: 2, c: 2, h: 8, w: 8,
			x: func(h, w int, v float32) float32 {
				if h%2 == 0 && w%2 == 0 && (h+w)%4 == 0 {
					return math.Float32frombits(0x7fc00000 | uint32(h*8+w))
				}
				return v
			}},
		{name: "K3s3-nan-first", k: 3, stride: 3, n: 1, c: 2, h: 9, w: 9,
			x: func(h, w int, v float32) float32 {
				if h%3 == 0 && w%3 == 0 && w%2 == 0 {
					return math.Float32frombits(0xffc00000 | uint32(h))
				}
				return v
			}},
		// A NaN later tap never wins, before or after the window's maximum.
		{name: "K2s2-nan-later", k: 2, stride: 2, n: 2, c: 2, h: 8, w: 8,
			x: func(h, w int, v float32) float32 {
				if (h%2 == 1 && w%2 == 0) || (h%2 == 0 && w%2 == 1 && h%4 == 0) {
					return math.Float32frombits(0x7f800001 + uint32(w))
				}
				return v
			}},
		{name: "K4s4-nan-later", k: 4, stride: 4, n: 1, c: 2, h: 8, w: 8,
			x: func(h, w int, v float32) float32 {
				if (h*8+w)%3 == 1 && (h%4 != 0 || w%4 != 0) {
					return math.Float32frombits(0xff800001)
				}
				return v
			}},
		{name: "K3s2p1-nan", k: 3, stride: 2, pad: 1, n: 1, c: 2, h: 7, w: 7,
			x: func(h, w int, v float32) float32 {
				if (h+2*w)%5 == 0 {
					return math.Float32frombits(0x7fc00000)
				}
				return v
			}},
		{name: "K2s2-inf", k: 2, stride: 2, n: 1, c: 3, h: 6, w: 8,
			x: func(h, w int, v float32) float32 {
				switch (h*8 + w) % 6 {
				case 0:
					return inf
				case 1, 3:
					return -inf
				}
				return v
			}},
		{name: "K2s2-all-neg-inf", k: 2, stride: 2, n: 1, c: 1, h: 4, w: 4,
			x: func(int, int, float32) float32 { return -inf }},
		// dY's signed zeros reach dX through += onto +0.
		{name: "K2s2-dy-negzero", k: 2, stride: 2, n: 2, c: 2, h: 6, w: 6,
			dy: func(i int, g float32) float32 {
				if i%3 == 0 {
					return negZero
				}
				return g
			}},
		{name: "K3s1-dy-negzero", k: 3, stride: 1, n: 1, c: 2, h: 6, w: 6,
			dy: func(i int, g float32) float32 {
				if i%2 == 0 {
					return negZero
				}
				return g
			}},
		// A recycled argmax container larger than needed, full of stale
		// nibbles, must be shrunk and every nibble rewritten.
		{name: "K2s2-recycled-large", k: 2, stride: 2, n: 1, c: 3, h: 10, w: 6, staleLen: 4099},
		{name: "K3s2p1-recycled-large", k: 3, stride: 2, pad: 1, n: 1, c: 2, h: 9, w: 9, staleLen: 777},
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
				if cc.x != nil {
					x.Data[i] = cc.x(i/cc.w%cc.h, i%cc.w, x.Data[i])
				}
			}
			outShape, err := op.OutShape([]tensor.Shape{x.Shape})
			if cc.rejected {
				if err == nil {
					t.Fatalf("OutShape accepted %v, want an error", outShape)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			staleLen := cc.staleLen
			if staleLen == 0 {
				staleLen = 3
			}
			dy := randTensor(uint64(ci+100), outShape...)
			if cc.dy != nil {
				for i := range dy.Data {
					dy.Data[i] = cc.dy(i, dy.Data[i])
				}
			}
			diffMaxPool(t, op, x, dy, staleLen)
		})
	}
}

// diffMaxPool runs MaxPool forward and backward on x and dy against the
// references and fails on the first differing bit of Y, the argmax words
// or dX. Forward starts from a recycled argmax container of staleLen
// nibbles, all set, which it must resize and fully overwrite.
func diffMaxPool(t *testing.T, op *MaxPoolOp, x, dy *tensor.Tensor, staleLen int) {
	t.Helper()
	got, want := tensor.New(dy.Shape...), tensor.New(dy.Shape...)
	got.Fill(99)
	stale := bitpack.NewNibbleArray(staleLen)
	for i := range stale.Words() {
		stale.Words()[i] = ^uint32(0)
	}
	gotAux, wantAux := map[string]any{auxKeyArgmax: stale}, map[string]any{}
	op.Forward(&FwdCtx{In: []*tensor.Tensor{x}, Out: got, Aux: gotAux})
	op.forwardRef(&FwdCtx{In: []*tensor.Tensor{x}, Out: want, Aux: wantAux})
	bitsMatch(t, "y", got.Data, want.Data)
	ga, wa := gotAux[auxKeyArgmax].(*bitpack.NibbleArray), wantAux[auxKeyArgmax].(*bitpack.NibbleArray)
	if ga.Len() != wa.Len() || len(ga.Words()) != len(wa.Words()) {
		t.Fatalf("argmax holds %d nibbles in %d words, reference %d in %d",
			ga.Len(), len(ga.Words()), wa.Len(), len(wa.Words()))
	}
	for i, w := range wa.Words() {
		if ga.Words()[i] != w {
			t.Fatalf("argmax word %d = %#08x, reference %#08x", i, ga.Words()[i], w)
		}
	}

	gdx, wdx := tensor.New(x.Shape...), tensor.New(x.Shape...)
	gdx.Fill(99)
	op.Backward(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{gdx}, Aux: gotAux})
	op.backwardRef(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{wdx}, Aux: wantAux})
	bitsMatch(t, "dx", gdx.Data, wdx.Data)
}
