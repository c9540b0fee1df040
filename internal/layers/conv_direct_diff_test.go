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

// mapKind selects how a map of a differential case is made: the upstream
// gradient of a backward case, the input of a forward one. Each kind is a
// regime of the sparse paths.
type mapKind int

const (
	mapDense      mapKind = iota
	mapSparse             // two thirds exact zeros, the post-ReLU regime
	mapZeroPlanes         // every other (image, channel) plane all zero
	mapNegZero            // a third -0, a third +0: both compare equal to zero
	mapAllZero            // the vanished-gradient step; a dead ReLU layer's output
	mapPooled             // at most one nonzero per 2x2 window, ~97 % zeros: a MaxPool's dX
	mapStraddle           // planes alternately at the sparse threshold and one nonzero past it
	mapFraction           // each element zero with the case's chosen probability
	numMapKinds
)

func (k mapKind) String() string {
	return [...]string{"dense", "two-thirds-zero", "zero-planes", "neg-zero", "all-zero",
		"pooled", "straddle", "fraction"}[k]
}

// makeMap builds a map of the given kind; zeros is mapFraction's zero
// probability. A mapDense map is randTensor's.
func makeMap(kind mapKind, zeros float64, seed uint64, shape tensor.Shape) *tensor.Tensor {
	dy := randTensor(seed, shape...)
	r := tensor.NewRNG(seed + 7)
	oh, ow := shape[2], shape[3]
	plane := oh * ow
	for i := range dy.Data {
		u := r.Float32()
		switch kind {
		case mapSparse:
			if u < 2.0/3 {
				dy.Data[i] = 0
			}
		case mapZeroPlanes:
			if (i/plane)%2 == 0 {
				dy.Data[i] = 0
			}
		case mapNegZero:
			if u < 1.0/3 {
				dy.Data[i] = negZero
			} else if u < 2.0/3 {
				dy.Data[i] = 0
			}
		case mapAllZero:
			dy.Data[i] = 0
		case mapFraction:
			if float64(u) < zeros {
				dy.Data[i] = 0
			}
		}
	}
	for p := 0; p < len(dy.Data); p += plane {
		g := dy.Data[p : p+plane]
		switch kind {
		case mapPooled:
			// One window in eight keeps the element its max came from.
			for yh := 0; yh < oh; yh += 2 {
				for yw := 0; yw < ow; yw += 2 {
					keep := r.Intn(32)
					for i := 0; i < 4; i++ {
						if h, w := yh+i/2, yw+i%2; h < oh && w < ow && i != keep {
							g[h*ow+w] = 0
						}
					}
				}
			}
		case mapStraddle:
			// Exactly want nonzeros, placed by selection sampling.
			want := plane * sparseNum / sparseDen
			if (p/plane)%2 == 1 {
				want++
			}
			for i := range g {
				if r.Intn(plane-i) < want {
					want--
				} else {
					g[i] = 0
				}
			}
		}
	}
	return dy
}

// diffDirect runs one shape through the kernels and the reference and
// compares every output bit for bit, forward under every kind of input
// map and backward under every dY kind (mapFraction at the given zero
// probability). A -0 bias and a few exact-zero and -0 weights ride along:
// the reference adds w·x for them like any other tap, so the kernels must
// too. A nil dX must leave dW and dB as they are. X read as stored must
// give what X as a tensor gives (diffStash).
func diffDirect(t testing.TB, cc convCase, seed uint64, zeros float64) {
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

	// Forward runs three ways: with the wall's -0 bias, and with a clean
	// bias and one infinite weight, both of which scatterSafe keeps on the
	// dense kernels; and with clean parameters, which send the 3x3 shape's
	// sparse input planes to the scatter kernel.
	params := []*tensor.Tensor{w, b}
	cleanB, infW := b.Clone(), w.Clone()
	cleanB.Data[0] = 0.5
	infW.Data[len(infW.Data)/2] = float32(math.Inf(1))
	for kind := mapKind(0); kind < numMapKinds; kind++ {
		in := []*tensor.Tensor{makeMap(kind, zeros, seed+1, x.Shape)}
		for _, run := range []struct {
			name   string
			params []*tensor.Tensor
		}{{"-0-bias", params}, {"inf-weight", []*tensor.Tensor{infW, cleanB}}, {"clean", []*tensor.Tensor{w, cleanB}}} {
			got, want := tensor.New(outShape...), tensor.New(outShape...)
			got.Fill(99) // Forward must overwrite every element
			op.Forward(&FwdCtx{In: in, Params: run.params, Out: got})
			op.forwardDirectRef(&FwdCtx{In: in, Params: run.params, Out: want})
			check(fmt.Sprintf("x=%v %s y", kind, run.name), got, want)
		}
	}

	for kind := mapKind(0); kind < numMapKinds; kind++ {
		dy := makeMap(kind, zeros, seed+4, outShape)
		run := func(back func(*BwdCtx), withDX bool) [3]*tensor.Tensor {
			out := [3]*tensor.Tensor{tensor.New(x.Shape...), tensor.New(w.Shape...), tensor.New(b.Shape...)}
			for _, o := range out {
				o.Fill(99) // Backward writes, it does not accumulate
			}
			dIn := out[:1]
			if !withDX {
				dIn = []*tensor.Tensor{nil}
			}
			back(&BwdCtx{In: []*tensor.Tensor{x}, Params: params, DOut: dy,
				DIn: dIn, DParams: out[1:]})
			return out
		}
		g, r := run(op.Backward, true), run(op.backwardDirectRef, true)
		for i, what := range []string{"dx", "dw", "db"} {
			check(fmt.Sprintf("dy=%v %s", kind, what), g[i], r[i])
		}
		noDX := run(op.Backward, false)
		check(fmt.Sprintf("dy=%v nil-dx dw", kind), noDX[1], g[1])
		check(fmt.Sprintf("dy=%v nil-dx db", kind), noDX[2], g[2])
		diffStash(t, fmt.Sprintf("%+v seed %d dy=%v", cc, seed, kind), op, x, dy, params, seed+5)
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
		diffDirect(t, cc, uint64(ci*100), 0.9)
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
						diffDirect(t, convCase{ch[1], k, k, stride, pad, 2, ch[0], iw + 3, iw}, seed, float64(seed%10)/10)
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
		// Three draws in four are forced onto the register-blocked shapes.
		switch drawn % 4 {
		case 1:
			cc.kw, cc.stride, cc.pad = 3, 1, 1
		case 2:
			cc.kh, cc.kw, cc.stride, cc.pad = 3, 3, 1, 1
		case 3:
			cc.kh, cc.kw, cc.stride, cc.pad = 1, 1, 1, 0
		}
		if !cc.hasOutput() {
			continue
		}
		drawn++
		diffDirect(t, cc, uint64(9000+drawn), float64(drawn%11)/10)
	}
}

// FuzzConvDirect feeds fuzzer-chosen shapes, seeds and zero fractions
// (the tenth shape byte, over 255, for both x and dY) through the same
// bit-for-bit comparison (`make fuzz`), so the fuzzer steers input and
// gradient planes onto either side of the sparse paths' threshold.
func FuzzConvDirect(f *testing.F) {
	f.Add([]byte{7, 2, 2, 0, 1, 1, 7, 7, 7, 128}, uint64(1))   // 3x3/s1/p1
	f.Add([]byte{7, 0, 0, 0, 0, 1, 7, 11, 11, 250}, uint64(2)) // 1x1/s1/p0
	f.Add([]byte{1, 4, 4, 1, 2, 0, 1, 10, 10, 200}, uint64(3)) // 5x5/s2/p2
	f.Add([]byte{1, 4, 4, 0, 4, 0, 0, 1, 1, 0}, uint64(4))     // pad 4 on a 2x2 input
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		var b [10]byte
		copy(b[:], shape)
		if cc := randomConvCase([9]byte(b[:9])); cc.hasOutput() {
			diffDirect(t, cc, seed, float64(b[9])/255)
		}
	})
}

// TestDiffDirectSparseChunks holds the sparse paths across their stack
// chunks: planes with more nonzero elements than one chunk, placed so the
// chunk boundary falls mid-row, on the pointwise, three-tap and generic
// shapes — in dY, with and without dX, and in the input of forward, which
// the three-tap shapes scatter.
func TestDiffDirectSparseChunks(t *testing.T) {
	for ci, cc := range []convCase{
		{3, 1, 1, 1, 0, 2, 3, 40, 37}, // pointwise
		{3, 3, 3, 1, 1, 2, 3, 40, 37}, // three-tap rows
		{3, 5, 5, 2, 2, 2, 3, 80, 75}, // generic, stride 2
		{2, 3, 3, 1, 1, 1, 5, 48, 47}, // three-tap rows, odd inC
		{2, 1, 1, 1, 0, 1, 5, 48, 47}, // pointwise, odd inC
	} {
		seed := uint64(7000 + ci)
		op := &Conv2D{OutC: cc.outC, KH: cc.kh, KW: cc.kw, Stride: cc.stride, Pad: cc.pad}
		outShape, err := op.OutShape([]tensor.Shape{{cc.n, cc.inC, cc.h, cc.w}})
		if err != nil {
			t.Fatal(err)
		}
		ow, plane := outShape[3], outShape[2]*outShape[3]
		// Every third element: the chunk's last entry and the next one
		// share a row, and the plane stays on the sparse path.
		thirds := func(m *tensor.Tensor, plane int) *tensor.Tensor {
			for i := range m.Data {
				if i%plane%3 != 0 {
					m.Data[i] = 0
				}
			}
			return m
		}
		dy := thirds(randTensor(seed, outShape...), plane)
		nnz, last := (plane+2)/3, 3*(sparseChunk-1)
		if nnz <= sparseChunk || !sparsePlane(nnz, plane) || last%ow == ow-1 || last%ow+3 >= ow {
			t.Fatalf("%+v: %d nonzeros in a %d-wide plane of %d miss the chunk regime", cc, nnz, ow, plane)
		}
		x := randTensor(seed+1, cc.n, cc.inC, cc.h, cc.w)
		params := []*tensor.Tensor{randTensor(seed+2, cc.outC, cc.inC, cc.kh, cc.kw), randTensor(seed+3, cc.outC)}
		run := func(back func(*BwdCtx), dx *tensor.Tensor) [3]*tensor.Tensor {
			out := [3]*tensor.Tensor{dx, tensor.New(params[0].Shape...), tensor.New(params[1].Shape...)}
			back(&BwdCtx{In: []*tensor.Tensor{x}, Params: params, DOut: dy,
				DIn: out[:1], DParams: out[1:]})
			return out
		}
		g := run(op.Backward, tensor.New(x.Shape...))
		r := run(op.backwardDirectRef, tensor.New(x.Shape...))
		noDX := run(op.Backward, nil)
		// A three-tap input plane is as wide as its output plane, so the
		// same pattern puts forward's chunk boundary mid-row too.
		if three := cc.kh == 3 && cc.kw == 3 && cc.stride == 1; three != op.scatterForward(cc.w, params[0].Data, params[1].Data) {
			t.Fatalf("%+v: scatterForward is %v", cc, !three)
		}
		fwd := [2]*tensor.Tensor{tensor.New(outShape...), tensor.New(outShape...)}
		in := []*tensor.Tensor{thirds(randTensor(seed+4, x.Shape...), cc.h*cc.w)}
		op.Forward(&FwdCtx{In: in, Params: params, Out: fwd[0]})
		op.forwardDirectRef(&FwdCtx{In: in, Params: params, Out: fwd[1]})
		for j, want := range fwd[1].Data {
			if a, b := math.Float32bits(fwd[0].Data[j]), math.Float32bits(want); a != b {
				t.Fatalf("%+v: y[%d] = %#08x, reference %#08x", cc, j, a, b)
			}
		}
		for i, what := range []string{"dx", "dw", "db"} {
			for j := range r[i].Data {
				if a, b := math.Float32bits(g[i].Data[j]), math.Float32bits(r[i].Data[j]); a != b {
					t.Fatalf("%+v: %s[%d] = %#08x, reference %#08x", cc, what, j, a, b)
				}
				if i > 0 && math.Float32bits(noDX[i].Data[j]) != math.Float32bits(r[i].Data[j]) {
					t.Fatalf("%+v: nil-dx %s[%d] differs from the reference", cc, what, j)
				}
			}
		}
	}
}

// TestSparseRegimesReachBothPaths checks that the wall's map kinds land
// where their names say: mapStraddle's planes alternate between the two
// paths, and mapPooled stays far below the threshold. And that the wall's
// forward runs reach both of forward's dispatches: the plane walk with
// clean parameters on a 3x3 shape, the dense kernels under a -0 bias, an
// infinite weight or another shape, with input planes on both sides of
// the threshold in the walk.
func TestSparseRegimesReachBothPaths(t *testing.T) {
	shape := tensor.Shape{2, 3, 9, 7}
	plane := 9 * 7
	dy := makeMap(mapStraddle, 0, 1, shape)
	for p := 0; p < len(dy.Data); p += plane {
		nnz := countNonzero(dy.Data[p : p+plane])
		if sparsePlane(nnz, plane) != ((p/plane)%2 == 0) || !sparsePlane(nnz-1, plane) {
			t.Fatalf("straddle plane %d: %d nonzeros of %d", p/plane, nnz, plane)
		}
	}
	pooled := makeMap(mapPooled, 0, 1, tensor.Shape{2, 4, 32, 32})
	if nnz := countNonzero(pooled.Data); nnz*10 > len(pooled.Data) {
		t.Fatalf("pooled: %d nonzeros of %d", nnz, len(pooled.Data))
	}

	w, b := randTensor(2, 4, 3, 3, 3).Data, randTensor(3, 4).Data
	vgg := &Conv2D{OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	negB, nanB := append([]float32{negZero}, b[1:]...), append([]float32{float32(math.NaN())}, b[1:]...)
	infW := append([]float32{}, w...)
	infW[5] = float32(math.Inf(-1))
	for _, d := range []struct {
		name string
		op   *Conv2D
		w, b []float32
		want bool
	}{
		{"clean 3x3", vgg, w, b, true},
		{"-0 bias", vgg, w, negB, false},
		{"NaN bias", vgg, w, nanB, false},
		{"infinite weight", vgg, infW, b, false},
		{"5x3", &Conv2D{OutC: 4, KH: 5, KW: 3, Stride: 1, Pad: 1}, w, b, false},
		{"1x1", &Conv2D{OutC: 4, KH: 1, KW: 1, Stride: 1}, w, b, false},
	} {
		if got := d.op.scatterForward(7, d.w, d.b); got != d.want {
			t.Errorf("%s: scatterForward = %v, want %v", d.name, got, d.want)
		}
	}
	var sparse, dense int
	for kind := mapKind(0); kind < numMapKinds; kind++ {
		x := makeMap(kind, 0.5, 1, shape)
		for p := 0; p < len(x.Data); p += plane {
			if sparsePlane(countNonzero(x.Data[p:p+plane]), plane) {
				sparse++
			} else {
				dense++
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("the input kinds put %d planes on the scatter and %d on the dense kernel", sparse, dense)
	}
}
