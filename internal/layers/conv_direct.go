package layers

import "math"

// Direct convolution kernels: AlgoDirect, the algorithm every training
// graph runs. They sweep contiguous rows of the NCHW planes and keep no
// scratch memory — WorkspaceBytes is 0 and stays 0.
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
// The reference skips dY elements that compare equal to zero. The sweeps
// keep that as a skip of all-zero dY planes — the vanished-gradient steps
// stay nearly free — and otherwise add the g·x and g·w products of a zero
// g like any other: dX, dW and dB start at +0 and a float32 sum that
// started at +0 is never -0, so adding ±0 leaves its bits alone. The one
// observable difference is 0·Inf: a zero gradient against a non-finite
// activation or weight now yields NaN where the reference skipped it.

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
// the shape selects add every tap into it.
func (c *Conv2D) forwardDirect(ctx *FwdCtx) {
	x, w, b, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	image, plane, filter := inC*ih*iw, oh*ow, inC*c.KH*c.KW
	for ni := 0; ni < n; ni++ {
		xs := x.Data[ni*image:][:image]
		for oc := 0; oc < c.OutC; oc++ {
			out := y.Data[(ni*c.OutC+oc)*plane:][:plane]
			bias := b.Data[oc]
			for j := range out {
				out[j] = bias
			}
			ws := w.Data[oc*filter:][:filter]
			switch {
			case c.pointwise():
				forwardPointwise(out, xs, ws)
			case c.rows3(iw):
				c.forwardRows3(out, xs, ws, ih, iw, oh)
			default:
				c.forwardTaps(out, xs, ws, ih, iw, oh, ow)
			}
		}
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
			s := out[j] + x0[j]*w0
			s += x1[j] * w1
			s += x2[j] * w2
			s += x3[j] * w3
			out[j] = s
		}
	}
	for ; ic < len(ws); ic++ {
		wv := ws[ic]
		for j, xv := range xs[ic*plane:][:plane] {
			out[j] += xv * wv
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
		s := or[0] + xr[0]*w1
		or[0] = s + xr[1]*w2
		for j := 2; j < iw; j++ { // element j-1; no index above j, so no bounds checks
			s := or[j-1] + xr[j-2]*w0
			s += xr[j-1] * w1
			s += xr[j] * w2
			or[j-1] = s
		}
		s = or[last] + xr[last-1]*w0
		or[last] = s + xr[last]*w1
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
							or[j] += xv * wv
						}
						continue
					}
					for j := range or {
						or[j] += xr[xi] * wv
						xi += c.Stride
					}
				}
			}
		}
	}
}

// backwardDirect sums dB, skips all-zero dY planes, and hands every other
// (image, output channel) plane to the kernel the shape selects, which
// accumulates that plane's share of dW and dX.
func (c *Conv2D) backwardDirect(ctx *BwdCtx) {
	x, w, dy := ctx.In[0], ctx.Params[0], ctx.DOut
	dx, dw, db := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	image, plane, filter := inC*ih*iw, oh*ow, inC*c.KH*c.KW

	dx.Zero()
	dw.Zero()
	db.Zero()
	for ni := 0; ni < n; ni++ {
		xs := x.Data[ni*image:][:image]
		dxs := dx.Data[ni*image:][:image]
		for oc := 0; oc < c.OutC; oc++ {
			g := dy.Data[(ni*c.OutC+oc)*plane:][:plane]
			bsum, nonzero := db.Data[oc], uint32(0)
			for _, gv := range g {
				bsum += gv
				nonzero |= math.Float32bits(gv) << 1 // the shift drops -0's sign
			}
			if nonzero == 0 {
				continue
			}
			db.Data[oc] = bsum
			ws := w.Data[oc*filter:][:filter]
			dws := dw.Data[oc*filter:][:filter]
			switch {
			case c.pointwise():
				backwardPointwise(g, xs, dxs, ws, dws)
			case c.rows3(iw):
				c.backwardRows3(g, xs, dxs, ws, dws, ih, iw, oh)
			default:
				c.backwardTaps(g, xs, dxs, ws, dws, ih, iw, oh, ow)
			}
		}
	}
}

// backwardPointwise reads the gradient plane once per two input planes:
// each keeps a running dW accumulator and receives g·w into its dX plane.
func backwardPointwise(g, xs, dxs, ws, dws []float32) {
	plane := len(g)
	ic := 0
	for ; ic+2 <= len(ws); ic += 2 {
		w0, w1 := ws[ic], ws[ic+1]
		a0, a1 := dws[ic], dws[ic+1]
		x0, d0 := xs[ic*plane:][:plane], dxs[ic*plane:][:plane]
		x1, d1 := xs[(ic+1)*plane:][:plane], dxs[(ic+1)*plane:][:plane]
		for j, gv := range g {
			a0 += gv * x0[j]
			d0[j] += gv * w0
			a1 += gv * x1[j]
			d1[j] += gv * w1
		}
		dws[ic], dws[ic+1] = a0, a1
	}
	if ic < len(ws) {
		wv, acc := ws[ic], dws[ic]
		xp, dp := xs[ic*plane:][:plane], dxs[ic*plane:][:plane]
		for j, gv := range g {
			acc += gv * xp[j]
			dp[j] += gv * wv
		}
		dws[ic] = acc
	}
}

// backwardRows3 is the KW == 3, stride 1, pad 1 kernel. Kernel rows run
// in descending kh so that, with yh ascending inside each, every dX row
// meets its output rows in ascending yh.
func (c *Conv2D) backwardRows3(g, xs, dxs, ws, dws []float32, ih, iw, oh int) {
	inC := len(xs) / (ih * iw)
	for ic := 0; ic < inC; ic++ {
		for kh := c.KH - 1; kh >= 0; kh-- {
			wk := ws[(ic*c.KH+kh)*3:][:3]
			dwk := dws[(ic*c.KH+kh)*3:][:3]
			lo, hi := tapRange(kh, ih, oh, 1, 1)
			first := (ic*ih + lo - 1 + kh) * iw
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
		a1 += gr[0] * xr[0]
		a2 += gr[0] * xr[1]
		d := dr[0] + gr[0]*w1
		dr[0] = d + gr[1]*w0
		for j := 2; j < iw; j++ { // element j-1; no index above j, so no bounds checks
			gv := gr[j-1]
			a0 += gv * xr[j-2]
			a1 += gv * xr[j-1]
			a2 += gv * xr[j]
			d := dr[j-1] + gr[j-2]*w2
			d += gv * w1
			d += gr[j] * w0
			dr[j-1] = d
		}
		last := iw - 1
		a0 += gr[last] * xr[last-1]
		a1 += gr[last] * xr[last]
		d = dr[last] + gr[last-1]*w2
		dr[last] = d + gr[last]*w1
	}
	return a0, a1, a2
}

// backwardTaps is the generic kernel: taps in descending (kh, kw) under
// ascending (yh, yw), which is ascending (yh, yw) for every dX element;
// each tap's dW is one running accumulator over its whole window.
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
					xr, dr := xs[row:][:iw], dxs[row:][:iw]
					xi := lo*c.Stride - c.Pad + kw
					for _, gv := range g[yh*ow:][lo:hi] {
						acc += gv * xr[xi]
						dr[xi] += gv * wv
						xi += c.Stride
					}
				}
				dws[tap] = acc
			}
		}
	}
}
