package layers

import (
	"fmt"

	"gist/internal/tensor"
)

// ConvAlgo selects the convolution implementation, mirroring cuDNN's
// choice between memory-optimal and performance-optimal algorithms that
// the paper discusses in Section II: the workspace a convolution needs is
// a function of the algorithm, and the paper's baseline deliberately picks
// the memory-optimal one.
//
// "Performance-optimal" is a statement about the GPU libraries the cost
// model describes (costmodel, core/algoselect, the workspace experiment),
// not about the CPU kernels in this package: here the direct kernels run
// as fast as the lowering (EXPERIMENTS.md, kernel table) and are the ones
// every training step executes. Nothing on the training path selects
// AlgoIm2col.
type ConvAlgo int

const (
	// AlgoDirect is the memory-optimal direct convolution: no workspace.
	// It is the default and what training runs (conv_direct.go).
	AlgoDirect ConvAlgo = iota
	// AlgoIm2col is the lowering to a GEMM: it materializes the column
	// matrix of each image as workspace (inC*kh*kw x oh*ow FP32 values)
	// and runs as a dense matrix multiply — the form GPU libraries
	// execute fastest, which is what the cost model prices.
	AlgoIm2col
)

// String names the algorithm as reports print it.
func (a ConvAlgo) String() string {
	if a == AlgoIm2col {
		return "im2col"
	}
	return "direct"
}

// WorkspaceBytes returns the scratch memory one invocation of the
// convolution needs under its configured algorithm, for the given input
// shape: zero for direct, one image's column matrix for im2col.
func (c *Conv2D) WorkspaceBytes(in tensor.Shape) int64 {
	if c.Algo != AlgoIm2col {
		return 0
	}
	if c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0 {
		// A 1x1 stride-1 convolution is already a GEMM over the input
		// matrix: no column expansion is materialized.
		return 0
	}
	_, inC, h, w, err := shape4(in)
	if err != nil {
		return 0
	}
	oh := convOut(h, c.KH, c.Stride, c.Pad)
	ow := convOut(w, c.KW, c.Stride, c.Pad)
	return int64(inC*c.KH*c.KW) * int64(oh*ow) * 4
}

// im2col expands one image (inC x ih x iw) into the column matrix
// (inC*kh*kw rows x oh*ow columns), with zero padding applied.
//
// Stride-1 rows are three block operations — clear the left padding, copy
// the contiguous in-bounds run, clear the right padding — instead of one
// bounds test per element; values written are identical to im2colScalar.
func (c *Conv2D) im2col(x []float32, inC, ih, iw, oh, ow int, cols []float32) {
	k := c.KH * c.KW
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < c.KH; kh++ {
			for kw := 0; kw < c.KW; kw++ {
				row := (ic*k + kh*c.KW + kw) * oh * ow
				for yh := 0; yh < oh; yh++ {
					xh := yh*c.Stride - c.Pad + kh
					dst := cols[row+yh*ow : row+(yh+1)*ow : row+(yh+1)*ow]
					if xh < 0 || xh >= ih {
						clear(dst)
						continue
					}
					if c.Stride == 1 {
						// xw = yw - Pad + kw is in [0, iw) exactly for
						// yw in [lo, hi): one contiguous copy. Clamps keep
						// degenerate wide-padding shapes in range.
						lo := min(max(0, c.Pad-kw), ow)
						hi := max(min(ow, iw+c.Pad-kw), lo)
						clear(dst[:lo])
						copy(dst[lo:hi], x[(ic*ih+xh)*iw+lo-c.Pad+kw:])
						clear(dst[hi:])
						continue
					}
					for yw := 0; yw < ow; yw++ {
						xw := yw*c.Stride - c.Pad + kw
						if xw < 0 || xw >= iw {
							dst[yw] = 0
						} else {
							dst[yw] = x[(ic*ih+xh)*iw+xw]
						}
					}
				}
			}
		}
	}
}

// col2im scatters a column-matrix gradient back into an image gradient,
// accumulating overlapping taps.
//
// Stride-1 rows hoist the bounds test out of the inner loop: the in-bounds
// yw range is contiguous, so the accumulation runs branch-free over it in
// the same ascending order as col2imScalar — bit-identical output.
func (c *Conv2D) col2im(cols []float32, inC, ih, iw, oh, ow int, dx []float32) {
	k := c.KH * c.KW
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < c.KH; kh++ {
			for kw := 0; kw < c.KW; kw++ {
				row := (ic*k + kh*c.KW + kw) * oh * ow
				for yh := 0; yh < oh; yh++ {
					xh := yh*c.Stride - c.Pad + kh
					if xh < 0 || xh >= ih {
						continue
					}
					if c.Stride == 1 {
						lo := min(max(0, c.Pad-kw), ow)
						hi := max(min(ow, iw+c.Pad-kw), lo)
						src := cols[row+yh*ow : row+(yh+1)*ow : row+(yh+1)*ow]
						xrow := dx[(ic*ih+xh)*iw : (ic*ih+xh)*iw+iw : (ic*ih+xh)*iw+iw]
						off := kw - c.Pad
						for yw := lo; yw < hi; yw++ {
							xrow[yw+off] += src[yw]
						}
						continue
					}
					for yw := 0; yw < ow; yw++ {
						xw := yw*c.Stride - c.Pad + kw
						if xw < 0 || xw >= iw {
							continue
						}
						dx[(ic*ih+xh)*iw+xw] += cols[row+yh*ow+yw]
					}
				}
			}
		}
	}
}

// forwardIm2col computes the convolution as per-image GEMMs:
// Y[oc, ohw] = W[oc, K] * cols[K, ohw] + b.
func (c *Conv2D) forwardIm2col(ctx *FwdCtx) {
	x, w, b, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	kdim := inC * c.KH * c.KW
	ohw := oh * ow
	cols := make([]float32, kdim*ohw)
	per := inC * ih * iw
	for ni := 0; ni < n; ni++ {
		c.im2col(x.Data[ni*per:(ni+1)*per], inC, ih, iw, oh, ow, cols)
		for oc := 0; oc < c.OutC; oc++ {
			wRow := w.Data[oc*kdim : (oc+1)*kdim]
			out := y.Data[((ni*c.OutC+oc)*oh)*ow : ((ni*c.OutC+oc)*oh+oh)*ow]
			bias := b.Data[oc]
			for j := range out {
				out[j] = bias
			}
			// Register-blocked GEMM row: four weight taps per pass over
			// out, one load/store of out[j] instead of four. The adds per
			// out[j] stay in ascending-kk order and the wv == 0 skip is
			// preserved (a block with any zero weight falls back to per-tap
			// passes), so the float32 result is bit-identical to
			// forwardIm2colScalar.
			kk := 0
			for ; kk+4 <= kdim; kk += 4 {
				w0, w1, w2, w3 := wRow[kk], wRow[kk+1], wRow[kk+2], wRow[kk+3]
				if w0 != 0 && w1 != 0 && w2 != 0 && w3 != 0 {
					c0 := cols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
					c1 := cols[(kk+1)*ohw : (kk+2)*ohw : (kk+2)*ohw]
					c2 := cols[(kk+2)*ohw : (kk+3)*ohw : (kk+3)*ohw]
					c3 := cols[(kk+3)*ohw : (kk+4)*ohw : (kk+4)*ohw]
					for j := range out {
						s := out[j] + w0*c0[j]
						s += w1 * c1[j]
						s += w2 * c2[j]
						s += w3 * c3[j]
						out[j] = s
					}
					continue
				}
				for q := kk; q < kk+4; q++ {
					if wv := wRow[q]; wv != 0 {
						colRow := cols[q*ohw : (q+1)*ohw : (q+1)*ohw]
						for j, cv := range colRow {
							out[j] += wv * cv
						}
					}
				}
			}
			for ; kk < kdim; kk++ {
				if wv := wRow[kk]; wv != 0 {
					colRow := cols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
					for j, cv := range colRow {
						out[j] += wv * cv
					}
				}
			}
		}
	}
}

// backwardIm2col computes dX, dW and dB through the column matrices:
// dW += dY[oc, ohw] * colsᵀ; dCols = Wᵀ * dY; dX = col2im(dCols).
func (c *Conv2D) backwardIm2col(ctx *BwdCtx) {
	x, w, dy := ctx.In[0], ctx.Params[0], ctx.DOut
	dx, dw, db := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	kdim := inC * c.KH * c.KW
	ohw := oh * ow
	cols := make([]float32, kdim*ohw)
	dcols := make([]float32, kdim*ohw)
	per := inC * ih * iw
	dx.Zero()
	dw.Zero()
	db.Zero()
	for ni := 0; ni < n; ni++ {
		c.im2col(x.Data[ni*per:(ni+1)*per], inC, ih, iw, oh, ow, cols)
		clear(dcols)
		for oc := 0; oc < c.OutC; oc++ {
			g := dy.Data[((ni*c.OutC+oc)*oh)*ow : ((ni*c.OutC+oc)*oh+oh)*ow]
			wRow := w.Data[oc*kdim : (oc+1)*kdim]
			dwRow := dw.Data[oc*kdim : (oc+1)*kdim]
			var bsum float32
			for _, gv := range g {
				bsum += gv
			}
			db.Data[oc] += bsum
			// Register-blocked dual GEMM: four taps share one pass over g,
			// loading each gradient element once for four dW dot-product
			// accumulators and four dCols updates. Each tap keeps its own
			// accumulator summed in ascending-j order and owns its dcol
			// row, so the result is bit-identical to backwardIm2colScalar.
			kk := 0
			for ; kk+4 <= kdim; kk += 4 {
				c0 := cols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
				c1 := cols[(kk+1)*ohw : (kk+2)*ohw : (kk+2)*ohw]
				c2 := cols[(kk+2)*ohw : (kk+3)*ohw : (kk+3)*ohw]
				c3 := cols[(kk+3)*ohw : (kk+4)*ohw : (kk+4)*ohw]
				d0 := dcols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
				d1 := dcols[(kk+1)*ohw : (kk+2)*ohw : (kk+2)*ohw]
				d2 := dcols[(kk+2)*ohw : (kk+3)*ohw : (kk+3)*ohw]
				d3 := dcols[(kk+3)*ohw : (kk+4)*ohw : (kk+4)*ohw]
				w0, w1, w2, w3 := wRow[kk], wRow[kk+1], wRow[kk+2], wRow[kk+3]
				var a0, a1, a2, a3 float32
				for j, gv := range g {
					a0 += gv * c0[j]
					d0[j] += w0 * gv
					a1 += gv * c1[j]
					d1[j] += w1 * gv
					a2 += gv * c2[j]
					d2[j] += w2 * gv
					a3 += gv * c3[j]
					d3[j] += w3 * gv
				}
				dwRow[kk] += a0
				dwRow[kk+1] += a1
				dwRow[kk+2] += a2
				dwRow[kk+3] += a3
			}
			for ; kk < kdim; kk++ {
				colRow := cols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
				dcolRow := dcols[kk*ohw : (kk+1)*ohw : (kk+1)*ohw]
				wv := wRow[kk]
				var dwAcc float32
				for j, gv := range g {
					dwAcc += gv * colRow[j]
					dcolRow[j] += wv * gv
				}
				dwRow[kk] += dwAcc
			}
		}
		c.col2im(dcols, inC, ih, iw, oh, ow, dx.Data[ni*per:(ni+1)*per])
	}
}

// SetAlgo selects the convolution algorithm and returns the operator for
// chaining in network builders.
func (c *Conv2D) SetAlgo(a ConvAlgo) *Conv2D {
	if a != AlgoDirect && a != AlgoIm2col {
		panic(fmt.Sprintf("layers: unknown conv algorithm %d", int(a)))
	}
	c.Algo = a
	return c
}
