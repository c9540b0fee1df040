package layers

import (
	"fmt"
	"math"
	"testing"

	"gist/internal/tensor"
)

// Differential wall for the direct convolution: the row-sweep kernels in
// conv_direct.go against the per-element loops they replaced, which live
// on below, verbatim, as the frozen reference. The comparison is on
// math.Float32bits — no tolerance — so it fails if any accumulation order
// of DESIGN.md §12 is perturbed: taps ascending in forward and dW, kw
// descending in dX, dB in scan order, padded taps skipped rather than
// added as w·0.

// forwardDirectRef is the original per-element direct convolution. Do not
// optimize it: its value is being obviously correct and frozen.
func (c *Conv2D) forwardDirectRef(ctx *FwdCtx) {
	x, w, b, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			bias := b.Data[oc]
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					sum := bias
					h0, w0 := yh*c.Stride-c.Pad, yw*c.Stride-c.Pad
					for ic := 0; ic < inC; ic++ {
						for kh := 0; kh < c.KH; kh++ {
							xh := h0 + kh
							if xh < 0 || xh >= ih {
								continue
							}
							for kw := 0; kw < c.KW; kw++ {
								xw := w0 + kw
								if xw < 0 || xw >= iw {
									continue
								}
								sum += x.At(ni, ic, xh, xw) * w.At(oc, ic, kh, kw)
							}
						}
					}
					y.Set(ni, oc, yh, yw, sum)
				}
			}
		}
	}
}

// backwardDirectRef is the original per-element backward pass.
func (c *Conv2D) backwardDirectRef(ctx *BwdCtx) {
	x, w, dy := ctx.In[0], ctx.Params[0], ctx.DOut
	dx, dw, db := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]

	dx.Zero()
	dw.Zero()
	db.Zero()
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					g := dy.At(ni, oc, yh, yw)
					if g == 0 {
						continue
					}
					db.Data[oc] += g
					h0, w0 := yh*c.Stride-c.Pad, yw*c.Stride-c.Pad
					for ic := 0; ic < inC; ic++ {
						for kh := 0; kh < c.KH; kh++ {
							xh := h0 + kh
							if xh < 0 || xh >= ih {
								continue
							}
							for kw := 0; kw < c.KW; kw++ {
								xw := w0 + kw
								if xw < 0 || xw >= iw {
									continue
								}
								dw.Data[((oc*inC+ic)*c.KH+kh)*c.KW+kw] += g * x.At(ni, ic, xh, xw)
								dx.Data[((ni*inC+ic)*ih+xh)*iw+xw] += g * w.At(oc, ic, kh, kw)
							}
						}
					}
				}
			}
		}
	}
}

var negZero = float32(math.Copysign(0, -1))

// dyKind selects how the upstream gradient of a differential case is made.
type dyKind int

const (
	dyDense      dyKind = iota
	dySparse            // two thirds exact zeros, the post-ReLU regime
	dyZeroPlanes        // every other (image, channel) plane all zero
	dyNegZero           // a third -0, a third +0: g == 0 holds for both
	dyAllZero           // the vanished-gradient step
	numDyKinds
)

func (k dyKind) String() string {
	return [...]string{"dense", "two-thirds-zero", "zero-planes", "neg-zero", "all-zero"}[k]
}

func makeDY(kind dyKind, seed uint64, shape tensor.Shape) *tensor.Tensor {
	dy := randTensor(seed, shape...)
	r := tensor.NewRNG(seed + 7)
	plane := shape[2] * shape[3]
	for i := range dy.Data {
		u := r.Float32()
		switch kind {
		case dySparse:
			if u < 2.0/3 {
				dy.Data[i] = 0
			}
		case dyZeroPlanes:
			if (i/plane)%2 == 0 {
				dy.Data[i] = 0
			}
		case dyNegZero:
			if u < 1.0/3 {
				dy.Data[i] = negZero
			} else if u < 2.0/3 {
				dy.Data[i] = 0
			}
		case dyAllZero:
			dy.Data[i] = 0
		}
	}
	return dy
}

// diffDirect runs one shape through the kernels and the reference and
// compares every output bit for bit. A -0 bias and a few exact-zero and
// -0 weights ride along: the reference adds w·x for them like any other
// tap, so the kernels must too.
func diffDirect(t testing.TB, cc convCase, seed uint64) {
	t.Helper()
	op := &Conv2D{OutC: cc.outC, KH: cc.kh, KW: cc.kw, Stride: cc.stride, Pad: cc.pad}
	x := randTensor(seed+1, cc.n, cc.inC, cc.h, cc.w)
	w := randTensor(seed+2, cc.outC, cc.inC, cc.kh, cc.kw)
	b := randTensor(seed+3, cc.outC)
	b.Data[0] = negZero
	for i := range w.Data {
		switch i % 11 {
		case 3:
			w.Data[i] = 0
		case 7:
			w.Data[i] = negZero
		}
	}
	outShape, err := op.OutShape([]tensor.Shape{x.Shape})
	if err != nil {
		t.Fatalf("%+v: %v", cc, err)
	}
	check := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if g, r := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != r {
				t.Fatalf("%+v seed %d: %s[%d] = %#08x (%v), reference %#08x (%v)",
					cc, seed, what, i, g, got.Data[i], r, want.Data[i])
			}
		}
	}

	got, want := tensor.New(outShape...), tensor.New(outShape...)
	got.Fill(99) // Forward must overwrite every element
	params := []*tensor.Tensor{w, b}
	op.Forward(&FwdCtx{In: []*tensor.Tensor{x}, Params: params, Out: got})
	op.forwardDirectRef(&FwdCtx{In: []*tensor.Tensor{x}, Params: params, Out: want})
	check("y", got, want)

	for kind := dyKind(0); kind < numDyKinds; kind++ {
		dy := makeDY(kind, seed+4, outShape)
		run := func(back func(*BwdCtx)) [3]*tensor.Tensor {
			out := [3]*tensor.Tensor{tensor.New(x.Shape...), tensor.New(w.Shape...), tensor.New(b.Shape...)}
			for _, o := range out {
				o.Fill(99) // Backward writes, it does not accumulate
			}
			back(&BwdCtx{In: []*tensor.Tensor{x}, Params: params, DOut: dy,
				DIn: out[:1], DParams: out[1:]})
			return out
		}
		g, r := run(op.Backward), run(op.backwardDirectRef)
		for i, what := range []string{"dx", "dw", "db"} {
			check(fmt.Sprintf("dy=%v %s", kind, what), g[i], r[i])
		}
	}
}

// convCase is one convolution shape; diffConvCases the corner cases every
// kernel is held to: 5x5, strides, pad 0, pad wider than the kernel, a 2x2
// input, non-square kernels, tap counts around four.
type convCase struct {
	outC, kh, kw, stride, pad int
	n, inC, h, w              int
}

func diffConvCases() []convCase {
	return []convCase{
		{4, 3, 3, 1, 1, 2, 3, 8, 8},   // classic 3x3 same-pad
		{2, 5, 5, 2, 2, 1, 2, 11, 11}, // strided 5x5
		{3, 1, 1, 1, 0, 2, 4, 5, 5},   // 1x1 (kdim=4, exactly one block)
		{2, 3, 3, 2, 0, 1, 1, 7, 9},   // stride 2, no pad, kdim=9 (ragged)
		{2, 3, 1, 1, 0, 1, 2, 6, 6},   // non-square kernel, kdim=6
		{1, 2, 2, 1, 0, 1, 1, 3, 3},   // kdim=4 exactly
		{2, 2, 2, 1, 0, 1, 1, 4, 4},   // tiny
		{1, 3, 3, 1, 2, 1, 1, 3, 3},   // pad wider than half the kernel
		{2, 5, 5, 1, 4, 1, 1, 2, 2},   // degenerate: pad 4 on a 2x2 input
		{2, 3, 3, 3, 1, 1, 2, 10, 10}, // stride 3
		{4, 3, 3, 1, 1, 1, 8, 16, 16}, // kdim=72: many full blocks
	}
}

// TestDiffDirectNamedShapes covers the shapes training and the benchmark
// run — 3x3/s1/p1 at the three TinyVGG sizes, StashNet's 1x1, TinyCNN's
// first layer — plus the diffConvCases corner cases.
func TestDiffDirectNamedShapes(t *testing.T) {
	cases := append(diffConvCases(),
		convCase{8, 3, 3, 1, 1, 2, 8, 32, 32},   // TinyVGG conv2
		convCase{16, 3, 3, 1, 1, 2, 16, 16, 16}, // TinyVGG conv4
		convCase{32, 3, 3, 1, 1, 2, 32, 8, 8},   // TinyVGG conv6
		convCase{8, 3, 3, 1, 1, 2, 3, 16, 16},   // TinyCNN conv1
		convCase{8, 1, 1, 1, 0, 2, 8, 64, 64},   // StashNet
		convCase{3, 1, 1, 1, 0, 1, 7, 5, 3},     // 1x1, inC ragged against the 4-plane block
		convCase{2, 3, 3, 1, 1, 1, 2, 5, 1},     // 3x3/p1 on a one-column image
		convCase{2, 3, 3, 1, 1, 1, 2, 1, 5},     // ... and a one-row image
		convCase{2, 3, 3, 1, 1, 1, 1, 4, 2},     // two columns: both edges, no interior
		convCase{2, 1, 3, 1, 1, 1, 2, 6, 7},     // KH=1, KW=3: row kernel with one kernel row
		convCase{2, 5, 3, 1, 1, 1, 2, 9, 6},     // KH=5, KW=3, pad 1
		convCase{2, 1, 1, 2, 0, 1, 3, 7, 7},     // 1x1 but strided: generic path
		convCase{2, 1, 1, 1, 1, 1, 3, 4, 4},     // 1x1 but padded: generic path
	)
	for ci, cc := range cases {
		diffDirect(t, cc, uint64(ci*100))
	}
}

// TestDiffDirectGrid sweeps the cross product of kernel, stride, pad
// (including pad == K, wider than any tap), channel counts and narrow,
// taller-than-wide inputs, so output widths 1, 2 and 3 — where a row is
// all edge and no interior — are hit under every combination.
func TestDiffDirectGrid(t *testing.T) {
	seed := uint64(5000)
	widths := map[int]int{}
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, k} {
				for _, ch := range [][2]int{{1, 1}, {3, 8}, {8, 3}} {
					for iw := 1; iw <= 7; iw++ {
						ow := convOut(iw, k, stride, pad)
						if ow <= 0 {
							continue
						}
						widths[ow]++
						seed++
						diffDirect(t, convCase{ch[1], k, k, stride, pad, 2, ch[0], iw + 3, iw}, seed)
					}
				}
			}
		}
	}
	for _, ow := range []int{1, 2, 3} {
		if widths[ow] == 0 {
			t.Errorf("grid never produced output width %d", ow)
		}
	}
}

// randomConvCase draws a shape from the bytes of a fuzz input (or an RNG):
// every field stays small enough that the per-element reference is cheap.
func randomConvCase(b [9]byte) convCase {
	return convCase{
		outC: 1 + int(b[0])%8, kh: 1 + int(b[1])%5, kw: 1 + int(b[2])%5,
		stride: 1 + int(b[3])%3, pad: int(b[4]) % 6,
		n: 1 + int(b[5])%2, inC: 1 + int(b[6])%9, h: 1 + int(b[7])%12, w: 1 + int(b[8])%12,
	}
}

// hasOutput reports whether the shape yields at least one output element.
func (cc convCase) hasOutput() bool {
	return convOut(cc.h, cc.kh, cc.stride, cc.pad) > 0 && convOut(cc.w, cc.kw, cc.stride, cc.pad) > 0
}

func TestDiffDirectRandomShapes(t *testing.T) {
	r := tensor.NewRNG(20)
	for drawn := 0; drawn < 250; {
		var b [9]byte
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		cc := randomConvCase(b)
		// Half the draws are forced onto the register-blocked shapes.
		switch drawn % 4 {
		case 1:
			cc.kw, cc.stride, cc.pad = 3, 1, 1
		case 3:
			cc.kh, cc.kw, cc.stride, cc.pad = 1, 1, 1, 0
		}
		if !cc.hasOutput() {
			continue
		}
		drawn++
		diffDirect(t, cc, uint64(9000+drawn))
	}
}

// FuzzConvDirect feeds fuzzer-chosen shapes and seeds through the same
// bit-for-bit comparison (`make fuzz`).
func FuzzConvDirect(f *testing.F) {
	f.Add([]byte{7, 2, 2, 0, 1, 1, 7, 7, 7}, uint64(1))   // 3x3/s1/p1
	f.Add([]byte{7, 0, 0, 0, 0, 1, 7, 11, 11}, uint64(2)) // 1x1/s1/p0
	f.Add([]byte{1, 4, 4, 1, 2, 0, 1, 10, 10}, uint64(3)) // 5x5/s2/p2
	f.Add([]byte{1, 4, 4, 0, 4, 0, 0, 1, 1}, uint64(4))   // pad 4 on a 2x2 input
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		var b [9]byte
		copy(b[:], shape)
		if cc := randomConvCase(b); cc.hasOutput() {
			diffDirect(t, cc, seed)
		}
	})
}
