package layers

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// Differential wall for ReLU: Forward/Backward gate bit patterns through
// bitpack.PositiveMask; the branchy loops they replaced live on here,
// verbatim, as the frozen reference. Outputs must match on math.Float32bits
// for every input, NaN payloads and signed zeros included. Backward handed
// Y as its Binarize mask (BwdCtx.OutMask, gated through
// bitpack.ApplyGate) must match Backward on the 0/1 tensor the mask
// expands to, which is what the executor decoded before it read masks as
// stored (DESIGN.md §12). Each also runs in place, as the executor runs an
// inplace ReLU — forward with Out == In[0], backward with DIn[0] == DOut,
// on the mask and on the FP32 Y — and must give the out-of-place bits.

// forwardRef is the original ReLU forward. Do not optimize it: its value
// is being obviously correct and frozen.
func (r *ReLUOp) forwardRef(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
}

// backwardRef is the original ReLU backward.
func (r *ReLUOp) backwardRef(ctx *BwdCtx) {
	y, dy, dx := ctx.Out, ctx.DOut, ctx.DIn[0]
	for i, g := range dy.Data {
		if y.Data[i] > 0 {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
}

// gateCorners are the bit patterns the sign predicate has to classify
// exactly like the float compare: ±NaN with several payloads, ±0, the
// denormal extremes, ±Inf and the finite extremes.
var gateCorners = []uint32{
	0x7fc00000, 0x7f800001, 0x7fbfffff, 0x7fffffff, // +NaN: quiet, signalling, payloads
	0xffc00000, 0xff800001, 0xffffffff, // -NaN
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // ±denormals
	0x7f800000, 0xff800000, // ±Inf
	0x7f7fffff, 0xff7fffff, 0x00800000, 0x80800000, // ±max finite, ±min normal
	0x3f800000, 0xbf800000, // ±1
}

// gateInput fills n bit patterns in one of the wall's regimes.
func gateInput(r *rand.Rand, regime string, n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		var b uint32
		switch regime {
		case "corners":
			b = gateCorners[r.Intn(len(gateCorners))]
		case "mixed":
			if r.Intn(3) == 0 {
				b = gateCorners[r.Intn(len(gateCorners))]
			} else {
				b = math.Float32bits(float32(r.NormFloat64()))
			}
		case "random-bits":
			b = r.Uint32()
		case "all-negative":
			b = r.Uint32() | 0x80000000
		case "all-positive":
			b = r.Uint32()%0x7f800000 + 1
		}
		xs[i] = math.Float32frombits(b)
	}
	return xs
}

// diffReLU runs both ReLU directions against the references on input x and
// gradient dy, and fails on the first differing bit pattern.
func diffReLU(t *testing.T, x, dy []float32) {
	t.Helper()
	n := len(x)
	label := fmt.Sprintf("n=%d: ", n)
	op := NewReLU()
	in := tensor.FromSlice(x, n)
	got, want := tensor.New(n), tensor.New(n)
	got.Fill(99)
	op.Forward(&FwdCtx{In: []*tensor.Tensor{in}, Out: got})
	op.forwardRef(&FwdCtx{In: []*tensor.Tensor{in}, Out: want})
	bitsMatch(t, label+"y", got.Data, want.Data)
	inplace := in.Clone()
	op.Forward(&FwdCtx{In: []*tensor.Tensor{inplace}, Out: inplace})
	bitsMatch(t, label+"y in place", inplace.Data, want.Data)

	// Backward reads the sign of Y; gate by the input itself so every
	// corner class reaches the predicate (a real Y is never negative).
	g := tensor.FromSlice(dy, n)
	gdx, wdx := tensor.New(n), tensor.New(n)
	gdx.Fill(99)
	op.Backward(&BwdCtx{Out: in, DOut: g, DIn: []*tensor.Tensor{gdx}})
	op.backwardRef(&BwdCtx{Out: in, DOut: g, DIn: []*tensor.Tensor{wdx}})
	bitsMatch(t, label+"dx", gdx.Data, wdx.Data)
	gInplace := g.Clone()
	op.Backward(&BwdCtx{Out: in, DOut: gInplace, DIn: []*tensor.Tensor{gInplace}})
	bitsMatch(t, label+"dx in place", gInplace.Data, wdx.Data)
	diffReLUMask(t, x, g, wdx.Data)
}

// diffReLUMask runs Backward on the Binarize mask of y and on the mask
// expanded to 0/1 values (ExpandRange, the Binarize decode), and fails
// unless both give the bits of want, the reference gradient gated by y.
func diffReLUMask(t *testing.T, y []float32, dy *tensor.Tensor, want []float32) {
	t.Helper()
	n := len(y)
	label := fmt.Sprintf("n=%d: ", n)
	m := bitpack.FromPositive(y)
	expanded := tensor.New(n)
	m.ExpandRange(expanded.Data, 0, n)
	mdx, edx := tensor.New(n), tensor.New(n)
	mdx.Fill(99)
	edx.Fill(99)
	op := NewReLU()
	op.Backward(&BwdCtx{OutMask: m, DOut: dy, DIn: []*tensor.Tensor{mdx}})
	op.Backward(&BwdCtx{Out: expanded, DOut: dy, DIn: []*tensor.Tensor{edx}})
	bitsMatch(t, label+"dx on the expanded mask", edx.Data, want)
	bitsMatch(t, label+"dx on the mask", mdx.Data, edx.Data)
	inplace := dy.Clone()
	op.Backward(&BwdCtx{OutMask: m, DOut: inplace, DIn: []*tensor.Tensor{inplace}})
	bitsMatch(t, label+"dx on the mask in place", inplace.Data, want)
}

// TestDiffReLUMaskGate is the wall for the executor's mask read: at one
// element, either side of a mask word and with ragged last words, for every
// input regime, gating dY (NaN payloads, ±0, ±Inf, denormals) through the
// mask gives the bits of Backward on the expanded 0/1 tensor.
func TestDiffReLUMaskGate(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 127, 129, 833, 4096 + 37}
	for ri, regime := range []string{"corners", "mixed", "random-bits", "all-negative", "all-positive"} {
		t.Run(regime, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ri + 11)))
			for _, n := range sizes {
				y, dy := gateInput(r, regime, n), tensor.FromSlice(gateInput(r, "corners", n), n)
				want := tensor.New(n)
				NewReLU().backwardRef(&BwdCtx{Out: tensor.FromSlice(y, n), DOut: dy, DIn: []*tensor.Tensor{want}})
				diffReLUMask(t, y, dy, want.Data)
			}
		})
	}
}

func bitsMatch(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i]); gb != wb {
			t.Fatalf("%s[%d] = %#08x, reference %#08x", what, i, gb, wb)
		}
	}
}

func TestDiffReLU(t *testing.T) {
	sizes := make([]int, 0, 132)
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 131072)
	for ri, regime := range []string{"corners", "mixed", "random-bits", "all-negative", "all-positive"} {
		t.Run(regime, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ri + 1)))
			for _, n := range sizes {
				diffReLU(t, gateInput(r, regime, n), gateInput(r, "corners", n))
			}
		})
	}
	// Every corner against every corner: each gate class meets each
	// gradient class, signed zeros and NaN payloads of dy included.
	var x, dy []float32
	for _, xb := range gateCorners {
		for _, gb := range gateCorners {
			x = append(x, math.Float32frombits(xb))
			dy = append(dy, math.Float32frombits(gb))
		}
	}
	diffReLU(t, x, dy)
}

// FuzzGateKernels drives both gate kernels against their references on
// arbitrary bit patterns: ReLU forward and backward over the data as
// float32s, and MaxPool forward and backward over a shape read from the
// first bytes (Pad < K; one bit forces the tiling case Stride == K,
// Pad == 0) with the data cycled through X and dY.
func FuzzGateKernels(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 7, 7, 1}, []byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 0, 2, 8, 9, 0}, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0x80, 0xff, 0, 0, 0x80, 0x3f})
	f.Add([]byte{2, 3, 0, 1, 0, 11, 4, 1}, []byte{1, 0, 0x80, 0x7f, 0, 0, 0x80, 0x3f, 0, 0, 0, 0xbf})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		xs := make([]float32, len(data)/4)
		for i := range xs {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		dys := make([]float32, len(xs))
		for i := range dys {
			dys[i] = xs[len(xs)-1-i]
		}
		diffReLU(t, xs, dys)

		var b [8]byte
		copy(b[:], shape)
		k := 1 + int(b[0]%4)
		op := &MaxPoolOp{K: k, Stride: 1 + int(b[1]%4), Pad: int(b[2]) % k}
		if b[7]&1 == 1 {
			op.Stride, op.Pad = k, 0
		}
		x := tensor.New(1+int(b[3]%2), 1+int(b[4]%3), 1+int(b[5]%12), 1+int(b[6]%12))
		outShape, err := op.OutShape([]tensor.Shape{x.Shape})
		if err != nil || len(xs) == 0 {
			return
		}
		dy := tensor.New(outShape...)
		for i := range x.Data {
			x.Data[i] = xs[i%len(xs)]
		}
		for i := range dy.Data {
			dy.Data[i] = dys[i%len(dys)]
		}
		diffMaxPool(t, op, x, dy, 1+int(b[7]>>1))
	})
}
