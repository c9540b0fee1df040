package layers

import "math"

// Direct convolution kernels: the only convolution there is, run by every
// training graph. They sweep contiguous rows of the NCHW planes and keep no
// scratch memory.
//
// The contract (DESIGN.md §12) is bit-identity with the per-element loops
// these replaced, which survive as the frozen reference of
// conv_direct_diff_test.go: every output element receives exactly the
// float32 additions the reference gives it, in the same order, straight
// into the destination value and never through a partial sum.
//
//   - Y and dW: taps in ascending (ic, kh, kw), positions in ascending
//     (ni, yh, yw).
//   - dX: ascending (oc, yh, yw). A dX element meets its taps in
//     *descending* kh and kw, because the output position that reaches it
//     through a larger tap is an earlier one.
//   - dB: ascending (ni, yh, yw).
//   - A tap that lands in the padding is skipped, not added as w·0 (which
//     would turn a -0 sum into +0).
//
// The reference skips dY elements that compare equal to zero. Backward
// keeps that skip per plane. An all-zero dY plane is skipped whole —
// the vanished-gradient steps stay nearly free. A sparse plane (at most
// 40 % of its elements nonzero, sparsePlane) takes the sparse path: its
// nonzero elements are compacted, a stack chunk at a time, and the sparse
// kernels add each one's g·x and g·w products, entries in ascending
// position for every dW tap and dX element, which is the order above. A
// dense plane takes the row sweeps, which add the products of a zero g
// like any other: dX, dW and dB start at +0 and a float32 sum that started
// at +0 is never -0, so adding ±0 leaves its bits alone. The one
// observable difference is 0·Inf on a dense plane: a zero gradient against
// a non-finite activation or weight yields NaN where the reference skipped
// it. Backward with a nil dX (an input whose gradient nothing reads)
// computes dW and dB only, on either path.
//
// Forward on the 3x3 three-tap shape (every TinyVGG convolution) walks the
// input planes, ic ascending, and counts each one's nonzeros once: a run
// of dense planes goes to the row sweep, a sparse plane to a scatter that
// adds each nonzero input's nine products into the outputs it reaches.
// Every output element still meets its taps in ascending (ic, kh, kw):
// within a plane, the input element at the larger position is the larger
// tap of every output it shares with a smaller one. The reference adds
// the ±0·w products the scatter skips. That leaves a sum's bits alone
// unless the bias is -0 (-0 + +0 is +0) or a signaling NaN, or w is not
// finite (0·Inf is NaN), so a call with such a bias or weight runs the
// row sweep on every plane (scatterSafe).
//
// Every forward kernel, the sparse backward kernels and the dW-only sweeps
// write each product as float32(g * x), the spec's barrier against a
// fused multiply-add, so every architecture adds the same roundings.

// tapRange returns the half-open range of output positions o whose tap k
// lands inside the input: 0 <= o*stride-pad+k < in.
func tapRange(k, in, out, stride, pad int) (lo, hi int) {
	if pad > k {
		lo = min((pad-k+stride-1)/stride, out)
	}
	if last := in - 1 + pad - k; last >= 0 {
		hi = min(last/stride+1, out)
	}
	return lo, max(lo, hi)
}

// pointwise reports a 1x1 stride-1 unpadded convolution: each output
// plane is a weighted sum of whole input planes.
func (c *Conv2D) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// rows3 reports the shape the three-tap row kernels handle: three kernel
// columns at stride 1, pad 1 (so ow == iw), on rows with two real edges.
func (c *Conv2D) rows3(iw int) bool {
	return c.KW == 3 && c.Stride == 1 && c.Pad == 1 && iw >= 2
}

// forwardDirect fills each output plane with its bias and lets the kernel
// the shape selects add every tap into it. The three-tap 3x3 shape walks
// the input planes instead (forwardPlanes), unless a -0 or NaN bias or a
// non-finite weight rules out skipping zero inputs (scatterSafe).
func (c *Conv2D) forwardDirect(ctx *FwdCtx) {
	x, w, b, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	image, plane, filter := inC*ih*iw, oh*ow, inC*c.KH*c.KW
	scatter := c.scatterForward(iw, w.Data, b.Data)
	for ni := 0; ni < n; ni++ {
		xs := x.Data[ni*image:][:image]
		ys := y.Data[ni*c.OutC*plane:][:c.OutC*plane]
		for oc := 0; oc < c.OutC; oc++ {
			out, bias := ys[oc*plane:][:plane], b.Data[oc]
			for j := range out {
				out[j] = bias
			}
			ws := w.Data[oc*filter:][:filter]
			switch {
			case scatter: // every plane filled first, then forwardPlanes
			case c.pointwise():
				forwardPointwise(out, xs, ws)
			case c.rows3(iw):
				c.forwardRows3(out, xs, ws, ih, iw, oh)
			default:
				c.forwardTaps(out, xs, ws, ih, iw, oh, ow)
			}
		}
		if scatter {
			c.forwardPlanes(ys, xs, w.Data, ih, iw)
		}
	}
}

// scatterForward reports whether forward walks the input planes, skipping
// zero inputs: on the 3x3 three-tap shape, when scatterSafe holds.
func (c *Conv2D) scatterForward(iw int, w, b []float32) bool {
	return c.KH == 3 && c.rows3(iw) && scatterSafe(w, b)
}

// scatterSafe reports whether skipping the ±0·w products of zero inputs
// leaves every output's bits alone: no bias is -0 or NaN (an addition
// would turn -0 into +0 and quiet a signaling NaN) and no weight is
// infinite or NaN (0·Inf is NaN). One pass over the parameters per call.
func scatterSafe(w, b []float32) bool {
	for _, v := range b {
		if v != v || math.Float32bits(v) == 1<<31 {
			return false
		}
	}
	for _, v := range w {
		if v-v != 0 { // NaN for ±Inf and NaN
			return false
		}
	}
	return true
}

// forwardPlanes adds one image's 3x3 taps into its bias-filled output
// planes ys, input plane by input plane, ic ascending: a run of dense
// planes goes to forwardRun, a sparse one (sparsePlane) to scatterPlane.
func (c *Conv2D) forwardPlanes(ys, xs, w []float32, ih, iw int) {
	plane := ih * iw
	inC := len(xs) / plane
	run := 0 // first input plane of the pending dense run
	for ic := 0; ic < inC; ic++ {
		xp := xs[ic*plane:][:plane]
		nnz := countNonzero(xp)
		if !sparsePlane(nnz, plane) {
			continue
		}
		c.forwardRun(ys, xs, w, run, ic, ih, iw)
		run = ic + 1
		c.scatterPlane(ys, xp, nnz, w, ic, inC, iw)
	}
	c.forwardRun(ys, xs, w, run, inC, ih, iw)
}

// forwardRun adds the taps of input planes [lo, hi) into every output
// plane with the dense three-tap kernel.
func (c *Conv2D) forwardRun(ys, xs, w []float32, lo, hi, ih, iw int) {
	plane, inC := ih*iw, len(xs)/(ih*iw)
	for oc := 0; oc < c.OutC; oc++ {
		c.forwardRows3(ys[oc*plane:][:plane], xs[lo*plane:hi*plane], w[(oc*inC+lo)*9:(oc*inC+hi)*9], ih, iw, ih)
	}
}

// scatterPlane adds input plane ic's nnz nonzero elements, compacted a
// chunk at a time, into every output plane.
func (c *Conv2D) scatterPlane(ys, xp []float32, nnz int, w []float32, ic, inC, iw int) {
	plane := len(xp)
	var e sparseEntries
	for p := 0; nnz > 0; {
		n := min(nnz, sparseChunk)
		p = e.compact(xp, p, n)
		nnz -= n
		e.columns(n, iw)
		for oc := 0; oc < c.OutC; oc++ {
			wk := w[(oc*inC+ic)*9:][:9]
			scatterPlane3(ys[oc*plane:][:plane], e.val[:n], e.pos[:n], e.col[:n], iw,
				wk[0], wk[1], wk[2], wk[3], wk[4], wk[5], wk[6], wk[7], wk[8])
		}
	}
}

// scatterPlane3 adds each entry's nine products x·w into the output
// elements it reaches: the entry at (r, col) reaches output (r+1-kh,
// col+1-kw) through tap (kh, kw). Entries off the edge rows and columns
// take the fast path; the others drop the outputs past the plane's edges.
// Its own function so the compiler keeps the nine weights in registers.
func scatterPlane3(out, val []float32, pos, col []int32, iw int, w0, w1, w2, w3, w4, w5, w6, w7, w8 float32) {
	pos, col = pos[:len(val)], col[:len(val)]
	top, bottom, last := int32(iw), int32(len(out)-iw), int32(iw-1)
	for k, v := range val {
		p, c := pos[k], col[k]
		i := int(p) - iw - 1 // output (r-1, col-1)
		if p >= top && p < bottom && c > 0 && c < last {
			o := out[i : i+3]
			o[0] += float32(v * w8)
			o[1] += float32(v * w7)
			o[2] += float32(v * w6)
			o = out[i+iw : i+iw+3]
			o[0] += float32(v * w5)
			o[1] += float32(v * w4)
			o[2] += float32(v * w3)
			o = out[i+2*iw : i+2*iw+3]
			o[0] += float32(v * w2)
			o[1] += float32(v * w1)
			o[2] += float32(v * w0)
			continue
		}
		left, right := c > 0, c < last
		if p >= top {
			scatterRow3(out, i, v, w8, w7, w6, left, right)
		}
		scatterRow3(out, i+iw, v, w5, w4, w3, left, right)
		if p < bottom {
			scatterRow3(out, i+2*iw, v, w2, w1, w0, left, right)
		}
	}
}

// scatterRow3 adds v·a, v·b, v·c into out[i], out[i+1], out[i+2],
// dropping the first without a left neighbour and the last without a
// right one.
func scatterRow3(out []float32, i int, v, a, b, c float32, left, right bool) {
	if left {
		out[i] += float32(v * a)
	}
	out[i+1] += float32(v * b)
	if right {
		out[i+2] += float32(v * c)
	}
}

// forwardPointwise adds inC weighted input planes into out, four planes
// per pass: one load/store of out[j] for four multiply-adds, applied in
// ascending-ic order.
func forwardPointwise(out, xs, ws []float32) {
	plane := len(out)
	ic := 0
	for ; ic+4 <= len(ws); ic += 4 {
		w0, w1, w2, w3 := ws[ic], ws[ic+1], ws[ic+2], ws[ic+3]
		x0 := xs[ic*plane:][:plane]
		x1 := xs[(ic+1)*plane:][:plane]
		x2 := xs[(ic+2)*plane:][:plane]
		x3 := xs[(ic+3)*plane:][:plane]
		for j := range out {
			s := out[j] + float32(x0[j]*w0)
			s += float32(x1[j] * w1)
			s += float32(x2[j] * w2)
			s += float32(x3[j] * w3)
			out[j] = s
		}
	}
	for ; ic < len(ws); ic++ {
		wv := ws[ic]
		for j, xv := range xs[ic*plane:][:plane] {
			out[j] += float32(xv * wv)
		}
	}
}

// forwardRows3 is the KW == 3, stride 1, pad 1 kernel: one pass per
// (ic, kh) adds the three taps of a kernel row into every output row that
// kernel row reaches.
func (c *Conv2D) forwardRows3(out, xs, ws []float32, ih, iw, oh int) {
	inC := len(xs) / (ih * iw)
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < c.KH; kh++ {
			wk := ws[(ic*c.KH+kh)*3:][:3]
			lo, hi := tapRange(kh, ih, oh, 1, 1)
			forwardPlane3(out[lo*iw:hi*iw], xs[(ic*ih+lo-1+kh)*iw:], iw, wk[0], wk[1], wk[2])
		}
	}
}

// forwardPlane3 adds w0·x[j-1] + w1·x[j] + w2·x[j+1] into out[j] along
// each row of iw elements, kw ascending, with one load/store of each
// output element; the two edge columns drop the tap that lands in the
// padding. Its own function so the compiler keeps the loop state in
// registers.
func forwardPlane3(out, xp []float32, iw int, w0, w1, w2 float32) {
	last := iw - 1
	for ; len(out) >= iw; out, xp = out[iw:], xp[iw:] {
		or, xr := out[:iw], xp[:iw]
		s := or[0] + float32(xr[0]*w1)
		or[0] = s + float32(xr[1]*w2)
		for j := 2; j < iw; j++ { // element j-1; no index above j, so no bounds checks
			s := or[j-1] + float32(xr[j-2]*w0)
			s += float32(xr[j-1] * w1)
			s += float32(xr[j] * w2)
			or[j-1] = s
		}
		s = or[last] + float32(xr[last-1]*w0)
		or[last] = s + float32(xr[last]*w1)
	}
}

// forwardTaps is the generic kernel: each tap adds its in-bounds window of
// the input plane into the output plane, taps in ascending (ic, kh, kw).
func (c *Conv2D) forwardTaps(out, xs, ws []float32, ih, iw, oh, ow int) {
	inC := len(xs) / (ih * iw)
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < c.KH; kh++ {
			ylo, yhi := tapRange(kh, ih, oh, c.Stride, c.Pad)
			for kw := 0; kw < c.KW; kw++ {
				lo, hi := tapRange(kw, iw, ow, c.Stride, c.Pad)
				if lo == hi {
					continue
				}
				wv := ws[(ic*c.KH+kh)*c.KW+kw]
				for yh := ylo; yh < yhi; yh++ {
					xr := xs[(ic*ih+yh*c.Stride-c.Pad+kh)*iw:][:iw]
					or := out[yh*ow:][lo:hi]
					xi := lo*c.Stride - c.Pad + kw
					if c.Stride == 1 {
						for j, xv := range xr[xi:][:len(or)] {
							or[j] += float32(xv * wv)
						}
						continue
					}
					for j := range or {
						or[j] += float32(xr[xi] * wv)
						xi += c.Stride
					}
				}
			}
		}
	}
}

// backwardDirect counts the nonzero elements of every (image, output
// channel) dY plane. It skips an all-zero plane, hands a sparse one to
// backwardSparse and a dense one to the kernel the shape selects; either
// accumulates that plane's share of dB, dW and dX. A nil dX (the graph
// input's gradient, which nothing reads) is left alone by every kernel.
// X comes an image at a time (xImages): from In[0], or decoded from the
// stash read as stored.
func (c *Conv2D) backwardDirect(ctx *BwdCtx) {
	x, xshape := imagesOf(ctx)
	w, dy := ctx.Params[0], ctx.DOut
	dx, dw, db := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	n, inC, ih, iw := xshape[0], xshape[1], xshape[2], xshape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	image, plane, filter := inC*ih*iw, oh*ow, inC*c.KH*c.KW

	if dx != nil {
		dx.Zero()
	}
	dw.Zero()
	db.Zero()
	for ni := 0; ni < n; ni++ {
		xs := x.image(ni)
		var dxs []float32
		if dx != nil {
			dxs = dx.Data[ni*image:][:image]
		}
		for oc := 0; oc < c.OutC; oc++ {
			g := dy.Data[(ni*c.OutC+oc)*plane:][:plane]
			nnz := countNonzero(g)
			if nnz == 0 {
				continue
			}
			ws := w.Data[oc*filter:][:filter]
			dws := dw.Data[oc*filter:][:filter]
			if sparsePlane(nnz, plane) {
				db.Data[oc] = c.backwardSparse(g, nnz, xs, dxs, ws, dws, db.Data[oc], ih, iw, oh, ow)
				continue
			}
			bsum := db.Data[oc]
			for _, gv := range g {
				bsum += gv
			}
			db.Data[oc] = bsum
			c.backwardDense(g, xs, dxs, ws, dws, ih, iw, oh, ow)
		}
	}
}

// backwardDense hands one plane to the dense kernel the shape selects.
func (c *Conv2D) backwardDense(g, xs, dxs, ws, dws []float32, ih, iw, oh, ow int) {
	switch {
	case c.pointwise():
		backwardPointwise(g, xs, dxs, ws, dws)
	case c.rows3(iw):
		c.backwardRows3(g, xs, dxs, ws, dws, ih, iw, oh)
	default:
		c.backwardTaps(g, xs, dxs, ws, dws, ih, iw, oh, ow)
	}
}

// nonzero is 1 when v compares unequal to zero (NaN included), else 0;
// the shift drops -0's sign.
func nonzero(v float32) int {
	return int(min(math.Float32bits(v)<<1, 1))
}

// countNonzero counts g's nonzero elements.
func countNonzero(g []float32) (nnz int) {
	for _, v := range g {
		nnz += nonzero(v)
	}
	return nnz
}

// sparsePlane reports whether a plane of the given size with nnz nonzero
// elements — a dY plane in backward, an input plane in forward — takes
// the sparse path: at most sparseNum/sparseDen of its elements nonzero.
// 40 % is the largest share in the sweep of BenchmarkConvBwdDensity at
// which the sparse kernels beat the dense ones on every shape
// (EXPERIMENTS.md, "Conv backward at the gradient's sparsity"); in
// BenchmarkConvFwdDensity the scatter breaks even there on the 32x32
// shape and wins on the smaller ones ("Conv forward at the input's
// sparsity").
func sparsePlane(nnz, plane int) bool { return nnz*sparseDen <= plane*sparseNum }

const sparseNum, sparseDen = 2, 5

// sparseChunk is how many nonzero elements backwardSparse and
// scatterPlane compact per pass, in arrays on their own stack.
const sparseChunk = 256

// sparseEntries holds one chunk of a plane's nonzero elements in
// ascending position: the position p, its column, xb and the value. For
// a dY plane xb is the flat index in the input image of the element tap
// (ic, kh, kw) = (0, 0, 0) would read — (yh·stride − pad)·iw + yw·stride
// − pad, out of range for a padded tap; forward does not use it.
type sparseEntries struct {
	pos, col, xb [sparseChunk]int32
	val          [sparseChunk]float32
}

// backwardSparse compacts the plane's nnz nonzero elements a chunk at a
// time, adds them to the bias gradient sum bsum, which it returns, and
// hands each chunk to the sparse kernel the shape selects. Every kernel
// walks a chunk's entries in ascending position for each dW tap and each
// dX element it touches, and chunks go in ascending position, so each
// output element receives the products of the reference, in its order:
// the reference skips g == 0, and so does the compaction.
func (c *Conv2D) backwardSparse(g []float32, nnz int, xs, dxs, ws, dws []float32, bsum float32, ih, iw, oh, ow int) float32 {
	var e sparseEntries
	for p := 0; nnz > 0; {
		n := min(nnz, sparseChunk)
		p = e.compact(g, p, n)
		nnz -= n
		for _, v := range e.val[:n] {
			bsum += v
		}
		if c.pointwise() {
			sparsePointwise(&e, n, xs, dxs, ws, dws)
			continue
		}
		yh := int(e.pos[0]) / ow // one division a chunk; entries ascend
		for k, q := range e.pos[:n] {
			yw := int(q) - yh*ow
			for ; yw >= ow; yw -= ow {
				yh++
			}
			e.col[k], e.xb[k] = int32(yw), int32((yh*c.Stride-c.Pad)*iw+yw*c.Stride-c.Pad)
		}
		if c.rows3(iw) {
			c.sparseRows3(&e, n, xs, dxs, ws, dws, ih, iw, oh)
		} else {
			c.sparseTaps(&e, n, xs, dxs, ws, dws, ih, iw, oh, ow)
		}
	}
	return bsum
}

// compact fills the first n entries with g's next n nonzero elements from
// position p on and returns the position after the last. It stores every
// element and keeps the nonzero ones: no branch on g.
func (e *sparseEntries) compact(g []float32, p, n int) int {
	for k := 0; k < n; p++ {
		e.pos[k], e.val[k] = int32(p), g[p]
		k += nonzero(g[p])
	}
	return p
}

// columns sets the first n entries' col to the column of their position
// in rows of w elements: one division a chunk, as the entries ascend.
func (e *sparseEntries) columns(n, w int) {
	r := int(e.pos[0]) / w
	for k, q := range e.pos[:n] {
		c := int(q) - r*w
		for ; c >= w; c -= w {
			r++
		}
		e.col[k] = int32(c)
	}
}

// entrySpan returns the range [a, b) of a chunk's entries whose position
// lies in [lo, hi): the entries of output rows [lo/ow, hi/ow).
func entrySpan(pos []int32, lo, hi int) (a, b int) {
	for a < len(pos) && int(pos[a]) < lo {
		a++
	}
	for b = len(pos); b > a && int(pos[b-1]) >= hi; b-- {
	}
	return a, b
}

// sparsePointwise is the 1x1 stride-1 unpadded kernel: entry k adds
// g·x[p] into dW[ic] and g·w[ic] into dX[ic][p] (none when dxs is nil),
// entries ascending, two input planes per pass over the chunk.
func sparsePointwise(e *sparseEntries, n int, xs, dxs, ws, dws []float32) {
	plane := len(xs) / len(ws)
	val := e.val[:n]
	pos := e.pos[:len(val)]
	ic := 0
	for ; ic+2 <= len(ws); ic += 2 {
		a0, a1 := dws[ic], dws[ic+1]
		x0, x1 := xs[ic*plane:][:plane], xs[(ic+1)*plane:][:plane]
		if dxs == nil {
			for k, gv := range val {
				a0 += float32(gv * x0[pos[k]])
				a1 += float32(gv * x1[pos[k]])
			}
		} else {
			w0, w1 := ws[ic], ws[ic+1]
			d0, d1 := dxs[ic*plane:][:plane], dxs[(ic+1)*plane:][:plane]
			for k, gv := range val {
				p := pos[k]
				a0 += float32(gv * x0[p])
				d0[p] += float32(gv * w0)
				a1 += float32(gv * x1[p])
				d1[p] += float32(gv * w1)
			}
		}
		dws[ic], dws[ic+1] = a0, a1
	}
	if ic < len(ws) {
		acc, xp := dws[ic], xs[ic*plane:][:plane]
		for k, gv := range val {
			p := int(pos[k])
			acc += float32(gv * xp[p])
			if dxs != nil {
				dxs[ic*plane+p] += float32(gv * ws[ic])
			}
		}
		dws[ic] = acc
	}
}

// sparseRows3 is the KW == 3, stride 1, pad 1 kernel: for each (ic, kh),
// the entries of the output rows kernel row kh reaches feed its three dW
// accumulators and scatter g·w0, g·w1, g·w2 into the dX elements left of,
// under and right of them; the edge columns drop the tap in the padding.
// Kernel rows go in descending kh, as in backwardRows3, so a dX element
// meets its entries in ascending position within the chunk.
func (c *Conv2D) sparseRows3(e *sparseEntries, n int, xs, dxs, ws, dws []float32, ih, iw, oh int) {
	inC := len(xs) / (ih * iw)
	pos := e.pos[:n]
	for ic := 0; ic < inC; ic++ {
		for kh := c.KH - 1; kh >= 0; kh-- {
			lo, hi := tapRange(kh, ih, oh, 1, 1)
			a, b := entrySpan(pos, lo*iw, hi*iw)
			if a == b {
				continue
			}
			tap := (ic*c.KH + kh) * 3
			wk, dwk := ws[tap:][:3], dws[tap:][:3]
			dwk[0], dwk[1], dwk[2] = sparsePlane3(e.val[a:b], e.col[a:b], e.xb[a:b], xs, dxs,
				(ic*ih+kh)*iw, int32(iw-1), wk[0], wk[1], wk[2], dwk[0], dwk[1], dwk[2])
		}
	}
}

// sparsePlane3 runs one kernel row's three taps over a span of entries:
// tap kw of the entry with input base index xb reads and writes element
// off + xb + kw. Its own function so the compiler keeps the accumulators
// in registers.
func sparsePlane3(val []float32, col, xb []int32, xs, dxs []float32, off int, last int32,
	w0, w1, w2, a0, a1, a2 float32) (float32, float32, float32) {
	col, xb = col[:len(val)], xb[:len(val)]
	if dxs == nil {
		for k, gv := range val {
			i := off + int(xb[k])
			if col[k] > 0 {
				a0 += float32(gv * xs[i])
			}
			a1 += float32(gv * xs[i+1])
			if col[k] < last {
				a2 += float32(gv * xs[i+2])
			}
		}
		return a0, a1, a2
	}
	for k, gv := range val {
		i := off + int(xb[k])
		if col[k] > 0 {
			a0 += float32(gv * xs[i])
			dxs[i] += float32(gv * w0)
		}
		a1 += float32(gv * xs[i+1])
		dxs[i+1] += float32(gv * w1)
		if col[k] < last {
			a2 += float32(gv * xs[i+2])
			dxs[i+2] += float32(gv * w2)
		}
	}
	return a0, a1, a2
}

// sparseTaps is the generic kernel: taps in descending (kh, kw), as in
// backwardTaps, each a running dW accumulator over the entries its window
// reaches. Like the other sparse kernels it leaves dX alone when dxs is
// nil.
func (c *Conv2D) sparseTaps(e *sparseEntries, n int, xs, dxs, ws, dws []float32, ih, iw, oh, ow int) {
	inC := len(xs) / (ih * iw)
	val := e.val[:n]
	pos, col, xb := e.pos[:len(val)], e.col[:len(val)], e.xb[:len(val)]
	for ic := 0; ic < inC; ic++ {
		for kh := c.KH - 1; kh >= 0; kh-- {
			ylo, yhi := tapRange(kh, ih, oh, c.Stride, c.Pad)
			a, b := entrySpan(pos, ylo*ow, yhi*ow)
			for kw := c.KW - 1; kw >= 0 && a < b; kw-- {
				lo, hi := tapRange(kw, iw, ow, c.Stride, c.Pad)
				tap := (ic*c.KH+kh)*c.KW + kw
				off := (ic*ih+kh)*iw + kw
				wv, acc := ws[tap], dws[tap]
				for k := a; k < b; k++ {
					if yw := int(col[k]); yw < lo || yw >= hi {
						continue
					}
					i := off + int(xb[k])
					acc += float32(val[k] * xs[i])
					if dxs != nil {
						dxs[i] += float32(val[k] * wv)
					}
				}
				dws[tap] = acc
			}
		}
	}
}

// backwardPointwise reads the gradient plane once per two input planes:
// each keeps a running dW accumulator and receives g·w into its dX plane.
// A nil dX leaves one dW accumulator per pass.
func backwardPointwise(g, xs, dxs, ws, dws []float32) {
	plane := len(g)
	if dxs == nil {
		for ic, acc := range dws {
			for j, xv := range xs[ic*plane:][:plane] {
				acc += float32(g[j] * xv)
			}
			dws[ic] = acc
		}
		return
	}
	ic := 0
	for ; ic+2 <= len(ws); ic += 2 {
		w0, w1 := ws[ic], ws[ic+1]
		a0, a1 := dws[ic], dws[ic+1]
		x0, d0 := xs[ic*plane:][:plane], dxs[ic*plane:][:plane]
		x1, d1 := xs[(ic+1)*plane:][:plane], dxs[(ic+1)*plane:][:plane]
		for j, gv := range g {
			a0 += float32(gv * x0[j])
			d0[j] += float32(gv * w0)
			a1 += float32(gv * x1[j])
			d1[j] += float32(gv * w1)
		}
		dws[ic], dws[ic+1] = a0, a1
	}
	if ic < len(ws) {
		wv, acc := ws[ic], dws[ic]
		xp, dp := xs[ic*plane:][:plane], dxs[ic*plane:][:plane]
		for j, gv := range g {
			acc += float32(gv * xp[j])
			dp[j] += float32(gv * wv)
		}
		dws[ic] = acc
	}
}

// backwardRows3 is the KW == 3, stride 1, pad 1 kernel. Kernel rows run
// in descending kh so that, with yh ascending inside each, every dX row
// meets its output rows in ascending yh. A nil dX takes weightPlane3.
func (c *Conv2D) backwardRows3(g, xs, dxs, ws, dws []float32, ih, iw, oh int) {
	inC := len(xs) / (ih * iw)
	for ic := 0; ic < inC; ic++ {
		for kh := c.KH - 1; kh >= 0; kh-- {
			wk := ws[(ic*c.KH+kh)*3:][:3]
			dwk := dws[(ic*c.KH+kh)*3:][:3]
			lo, hi := tapRange(kh, ih, oh, 1, 1)
			first := (ic*ih + lo - 1 + kh) * iw
			if dxs == nil {
				dwk[0], dwk[1], dwk[2] = weightPlane3(g[lo*iw:hi*iw], xs[first:], iw, dwk[0], dwk[1], dwk[2])
				continue
			}
			dwk[0], dwk[1], dwk[2] = backwardPlane3(g[lo*iw:hi*iw], xs[first:], dxs[first:], iw,
				wk[0], wk[1], wk[2], dwk[0], dwk[1], dwk[2])
		}
	}
}

// backwardPlane3 sweeps gradient rows of iw elements against the input
// rows one kernel row reaches. It feeds that kernel row's three running dW
// accumulators (a0 += g[j]·x[j-1], a1 += g[j]·x[j], a2 += g[j]·x[j+1], j
// ascending) and gathers the three taps of each dX element — g[j-1]·w2,
// g[j]·w1, g[j+1]·w0: yw ascending, so kw descending — with one
// load/store of it.
func backwardPlane3(g, xp, dp []float32, iw int, w0, w1, w2, a0, a1, a2 float32) (float32, float32, float32) {
	for ; len(g) >= iw; g, xp, dp = g[iw:], xp[iw:], dp[iw:] {
		gr, xr, dr := g[:iw], xp[:iw], dp[:iw]
		a1 += float32(gr[0] * xr[0])
		a2 += float32(gr[0] * xr[1])
		d := dr[0] + float32(gr[0]*w1)
		dr[0] = d + float32(gr[1]*w0)
		for j := 2; j < iw; j++ { // element j-1; no index above j, so no bounds checks
			gv := gr[j-1]
			a0 += float32(gv * xr[j-2])
			a1 += float32(gv * xr[j-1])
			a2 += float32(gv * xr[j])
			d := dr[j-1] + float32(gr[j-2]*w2)
			d += float32(gv * w1)
			d += float32(gr[j] * w0)
			dr[j-1] = d
		}
		last := iw - 1
		a0 += float32(gr[last] * xr[last-1])
		a1 += float32(gr[last] * xr[last])
		d = dr[last] + float32(gr[last-1]*w2)
		dr[last] = d + float32(gr[last]*w1)
	}
	return a0, a1, a2
}

// weightPlane3 is backwardPlane3 without dX: the three dW accumulators
// of one kernel row, each fed in ascending j.
func weightPlane3(g, xp []float32, iw int, a0, a1, a2 float32) (float32, float32, float32) {
	for ; len(g) >= iw; g, xp = g[iw:], xp[iw:] {
		gr, xr := g[:iw], xp[:iw]
		a1 += float32(gr[0] * xr[0])
		a2 += float32(gr[0] * xr[1])
		for j := 2; j < iw; j++ {
			gv := gr[j-1]
			a0 += float32(gv * xr[j-2])
			a1 += float32(gv * xr[j-1])
			a2 += float32(gv * xr[j])
		}
		a0 += float32(gr[iw-1] * xr[iw-2])
		a1 += float32(gr[iw-1] * xr[iw-1])
	}
	return a0, a1, a2
}

// backwardTaps is the generic kernel: taps in descending (kh, kw) under
// ascending (yh, yw), which is ascending (yh, yw) for every dX element;
// each tap's dW is one running accumulator over its whole window, and the
// only one kept when dX is nil.
func (c *Conv2D) backwardTaps(g, xs, dxs, ws, dws []float32, ih, iw, oh, ow int) {
	inC := len(xs) / (ih * iw)
	for ic := 0; ic < inC; ic++ {
		for kh := c.KH - 1; kh >= 0; kh-- {
			ylo, yhi := tapRange(kh, ih, oh, c.Stride, c.Pad)
			for kw := c.KW - 1; kw >= 0; kw-- {
				lo, hi := tapRange(kw, iw, ow, c.Stride, c.Pad)
				tap := (ic*c.KH+kh)*c.KW + kw
				wv, acc := ws[tap], dws[tap]
				for yh := ylo; yh < yhi; yh++ {
					row := (ic*ih + yh*c.Stride - c.Pad + kh) * iw
					xr, xi := xs[row:][:iw], lo*c.Stride-c.Pad+kw
					if dxs == nil {
						for _, gv := range g[yh*ow:][lo:hi] {
							acc += float32(gv * xr[xi])
							xi += c.Stride
						}
						continue
					}
					dr := dxs[row:][:iw]
					for _, gv := range g[yh*ow:][lo:hi] {
						acc += float32(gv * xr[xi])
						dr[xi] += float32(gv * wv)
						xi += c.Stride
					}
				}
				dws[tap] = acc
			}
		}
	}
}
