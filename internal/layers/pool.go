package layers

import (
	"fmt"
	"math"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// auxKeyArgmax stores the MaxPool output-to-input argmax map in the Aux map.
const auxKeyArgmax = "pool.argmax"

// MaxPoolOp is max pooling. The baseline CNTK implementation stashes both
// its input and output feature maps and rescans the window in backward to
// locate the maximum (Needs{X,Y}). Gist's Binarize transform instead records
// a Y-to-X argmax map in the forward pass — one 4-bit within-window index
// per output element (windows up to 4x4; the paper's suite maxes at 3x3) —
// removing both stashes. This implementation always records the map (the
// numerics are identical either way), and Backward reads only the map.
// Needs still advertises the baseline dependence, which the planner's CNTK
// baseline prices; encoding.Analyze rewrites it to none under Binarize, and
// an executor carrying that analysis runs the rewritten needs.
type MaxPoolOp struct {
	K, Stride, Pad int
}

// NewMaxPool returns a max pooling operator with a square window. Window
// sides above 4 would not fit the 4-bit argmax map and panic.
func NewMaxPool(k, stride, pad int) *MaxPoolOp {
	if k > 4 {
		panic(fmt.Sprintf("layers: MaxPool window %d exceeds the 4-bit argmax map", k))
	}
	return &MaxPoolOp{K: k, Stride: stride, Pad: pad}
}

// Kind returns MaxPool.
func (p *MaxPoolOp) Kind() Kind { return MaxPool }

// Needs reports the baseline dependence on X and Y (Binarize removes it).
func (p *MaxPoolOp) Needs() BackwardNeeds { return BackwardNeeds{X: true, Y: true} }

// OutShape infers the pooled spatial extents.
func (p *MaxPoolOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: MaxPool wants 1 input, got %d", len(in))
	}
	n, c, h, w, err := shape4(in[0])
	if err != nil {
		return nil, err
	}
	// Pad < K is what gives every window an in-bounds tap to seed its
	// maximum and argmax from; a window wholly in padding has neither.
	if p.Pad >= p.K {
		return nil, fmt.Errorf("layers: MaxPool padding %d leaves windows of %d without an input tap", p.Pad, p.K)
	}
	oh := convOut(h, p.K, p.Stride, p.Pad)
	ow := convOut(w, p.K, p.Stride, p.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: MaxPool output %dx%d not positive", oh, ow)
	}
	return tensor.Shape{n, c, oh, ow}, nil
}

// ParamShapes returns no parameters.
func (p *MaxPoolOp) ParamShapes([]tensor.Shape) []tensor.Shape { return nil }

// FLOPs counts one comparison per window tap.
func (p *MaxPoolOp) FLOPs(in []tensor.Shape) int64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(out.NumElements()) * int64(p.K*p.K)
}

// Forward computes windowed maxima and records the argmax map. In both
// kernels the in-bounds taps of each window are scanned in ascending
// (kh, kw) from the first one with a strict >, so ties go to the first
// occurrence, a NaN tap never replaces the running maximum (a NaN first tap
// is never replaced), and outputs and the argmax map are byte-identical to
// the per-element reference in pool_diff_test.go.
func (p *MaxPoolOp) Forward(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	// Reuse the previous step's argmax container when the executor keeps
	// aux maps alive across steps; every nibble is written below, so Reset
	// only needs to size it.
	argmax, _ := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
	if argmax == nil {
		argmax = bitpack.NewNibbleArray(y.NumElements())
	} else {
		argmax.Reset(y.NumElements())
	}
	// The windows tile the input when they neither overlap nor pad and the
	// input holds a whole window each way (a smaller side gets one clipped
	// window: convOut truncates toward zero).
	if p.Stride == p.K && p.Pad == 0 && x.Shape[2] >= p.K && x.Shape[3] >= p.K {
		p.forwardTiling(x, y, argmax)
	} else {
		p.forwardWindows(x, y, argmax)
	}
	ctx.Aux[auxKeyArgmax] = argmax
}

// forwardTiling is the kernel for windows that tile the input (Stride == K,
// Pad == 0 — every pool of TinyCNN, TinyVGG and StashNet). It slices the K
// input rows once per output row, seeds each window from its first tap and
// folds the others in with maxTap, so the data decides no branch. The
// argmax nibbles collect in a register and reach the map a word at a time.
func (p *MaxPoolOp) forwardTiling(x, y *tensor.Tensor, argmax *bitpack.NibbleArray) {
	n, c, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	k := p.K
	words := argmax.Words()
	var rows [4][]float32
	var acc uint32
	idx := 0
	for pl := 0; pl < n*c; pl++ {
		xp := x.Data[pl*ih*iw:][:ih*iw]
		yp := y.Data[pl*oh*ow:][:oh*ow]
		for yh := 0; yh < oh; yh++ {
			for kh := 0; kh < k; kh++ {
				rows[kh] = xp[(yh*k+kh)*iw:][:ow*k]
			}
			r0, r1 := rows[0], rows[1]
			yr := yp[yh*ow:][:ow]
			for yw := range yr {
				x0 := yw * k
				best, slot := math.Float32bits(r0[x0]), uint32(0)
				if k == 2 {
					// The 2×2 window every network pools with, unrolled:
					// the compiler does not unroll the loops below.
					best, slot = maxTap(r0[x0+1], 1, best, slot)
					best, slot = maxTap(r1[x0], 2, best, slot)
					best, slot = maxTap(r1[x0+1], 3, best, slot)
				} else {
					// Re-testing the seed tap is a no-op under strict >.
					for kh := 0; kh < k; kh++ {
						for kw, v := range rows[kh][x0 : x0+k] {
							best, slot = maxTap(v, uint32(kh*k+kw), best, slot)
						}
					}
				}
				yr[yw] = math.Float32frombits(best)
				acc |= slot << (uint(idx&7) * 4)
				if idx&7 == 7 {
					words[idx>>3] = acc
					acc = 0
				}
				idx++
			}
		}
	}
	if idx&7 != 0 {
		words[idx>>3] = acc
	}
}

// maxTap folds tap v at window slot s into a window's running maximum,
// held as a bit pattern: v and s replace best and slot when v > best,
// strictly, so a tie keeps the earlier tap and a NaN v never wins (nor does
// any v against a NaN best).
func maxTap(v float32, s, best, slot uint32) (uint32, uint32) {
	gt := v > math.Float32frombits(best)
	return selectU32(gt, math.Float32bits(v), best), selectU32(gt, s, slot)
}

// selectU32 returns a when sel holds and b otherwise. Its body is a bare
// two-way choice of integers, which the compiler lowers to a conditional
// move; written inline in maxTap, the float-to-bits move lands inside the
// branch and a jump stays.
func selectU32(sel bool, a, b uint32) uint32 {
	if sel {
		return a
	}
	return b
}

// forwardWindows is the general kernel for overlapping, padded and
// short-sided windows: each window's in-bounds taps are clipped from its
// offsets.
func (p *MaxPoolOp) forwardWindows(x, y *tensor.Tensor, argmax *bitpack.NibbleArray) {
	n, c, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	idx := 0
	for pl := 0; pl < n*c; pl++ {
		xp := x.Data[pl*ih*iw:][:ih*iw]
		yp := y.Data[pl*oh*ow:][:oh*ow]
		for yh := 0; yh < oh; yh++ {
			h0 := yh*p.Stride - p.Pad
			hlo, hhi := max(0, -h0), min(p.K, ih-h0)
			for yw := 0; yw < ow; yw++ {
				w0 := yw*p.Stride - p.Pad
				wlo, whi := max(0, -w0), min(p.K, iw-w0)
				best := float32(0)
				bestSlot := -1
				for kh := hlo; kh < hhi; kh++ {
					xr := xp[(h0+kh)*iw:][:iw]
					for kw := wlo; kw < whi; kw++ {
						if v := xr[w0+kw]; bestSlot < 0 || v > best {
							best = v
							bestSlot = kh*p.K + kw
						}
					}
				}
				yp[yh*ow+yw] = best
				argmax.Set(idx, uint8(bestSlot))
				idx++
			}
		}
	}
}

// Backward routes each dY element to the recorded argmax location of its
// window. It uses only the argmax map — neither stashed X nor Y is read —
// which is exactly the property Binarize exploits. A slot is a nibble, so
// its window offsets come from a table of 16 entries built once per call
// rather than a division per element.
func (p *MaxPoolOp) Backward(ctx *BwdCtx) {
	dy, dx := ctx.DOut, ctx.DIn[0]
	argmax := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
	n, c, ih, iw := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	var dh, dw [16]int
	for s := range dh {
		dh[s], dw[s] = s/p.K, s%p.K
	}
	dx.Zero()
	idx := 0
	for pl := 0; pl < n*c; pl++ {
		dxp := dx.Data[pl*ih*iw:][:ih*iw]
		for yh := 0; yh < oh; yh++ {
			for yw, g := range dy.Data[(pl*oh+yh)*ow:][:ow] {
				slot := argmax.Get(idx) & 15
				xh := yh*p.Stride - p.Pad + dh[slot]
				xw := yw*p.Stride - p.Pad + dw[slot]
				if xh >= 0 && xh < ih && xw >= 0 && xw < iw {
					dxp[xh*iw+xw] += g
				}
				idx++
			}
		}
	}
}

// AvgPoolOp is average pooling over a square window. Its backward pass
// distributes each gradient uniformly over the window and needs no stashed
// feature maps at all.
type AvgPoolOp struct {
	K, Stride, Pad int
}

// NewAvgPool returns an average pooling operator.
func NewAvgPool(k, stride, pad int) *AvgPoolOp {
	return &AvgPoolOp{K: k, Stride: stride, Pad: pad}
}

// Kind returns AvgPool.
func (p *AvgPoolOp) Kind() Kind { return AvgPool }

// Needs reports no stashed-feature-map dependence.
func (p *AvgPoolOp) Needs() BackwardNeeds { return BackwardNeeds{} }

// OutShape infers the pooled spatial extents.
func (p *AvgPoolOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: AvgPool wants 1 input, got %d", len(in))
	}
	n, c, h, w, err := shape4(in[0])
	if err != nil {
		return nil, err
	}
	oh := convOut(h, p.K, p.Stride, p.Pad)
	ow := convOut(w, p.K, p.Stride, p.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: AvgPool output %dx%d not positive", oh, ow)
	}
	return tensor.Shape{n, c, oh, ow}, nil
}

// ParamShapes returns no parameters.
func (p *AvgPoolOp) ParamShapes([]tensor.Shape) []tensor.Shape { return nil }

// FLOPs counts one add per window tap.
func (p *AvgPoolOp) FLOPs(in []tensor.Shape) int64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(out.NumElements()) * int64(p.K*p.K)
}

// Forward averages over each window (in-bounds taps only).
func (p *AvgPoolOp) Forward(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	n, c, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					h0, w0 := yh*p.Stride-p.Pad, yw*p.Stride-p.Pad
					var sum float32
					count := 0
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
							sum += x.At(ni, ci, xh, xw)
							count++
						}
					}
					if count > 0 {
						y.Set(ni, ci, yh, yw, sum/float32(count))
					}
				}
			}
		}
	}
}

// Backward distributes each dY uniformly over its window's in-bounds taps.
func (p *AvgPoolOp) Backward(ctx *BwdCtx) {
	dy, dx := ctx.DOut, ctx.DIn[0]
	n, c, ih, iw := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx.Zero()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for yh := 0; yh < oh; yh++ {
				for yw := 0; yw < ow; yw++ {
					h0, w0 := yh*p.Stride-p.Pad, yw*p.Stride-p.Pad
					count := 0
					for kh := 0; kh < p.K; kh++ {
						if xh := h0 + kh; xh >= 0 && xh < ih {
							for kw := 0; kw < p.K; kw++ {
								if xw := w0 + kw; xw >= 0 && xw < iw {
									count++
								}
							}
						}
					}
					if count == 0 {
						continue
					}
					g := dy.At(ni, ci, yh, yw) / float32(count)
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
							dx.Data[((ni*c+ci)*ih+xh)*iw+xw] += g
						}
					}
				}
			}
		}
	}
}
