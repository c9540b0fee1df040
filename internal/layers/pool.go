package layers

import (
	"fmt"

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
// numerics are identical either way); the Needs declaration advertises the
// baseline dependence, which the Schedule Builder rewrites when Binarize is
// applied.
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

// Forward computes windowed maxima and records the argmax map.
func (p *MaxPoolOp) Forward(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	n, c, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	// Reuse the previous step's argmax container when the executor keeps
	// aux maps alive across steps; every nibble is Set below, so Reset only
	// needs to size it.
	argmax, _ := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
	if argmax == nil {
		argmax = bitpack.NewNibbleArray(y.NumElements())
	} else {
		argmax.Reset(y.NumElements())
	}
	// The in-bounds taps of each window are scanned in ascending (kh, kw)
	// with a strict >, so ties go to the first occurrence and outputs and
	// the argmax map are byte-identical to the per-element reference in
	// pool_diff_test.go.
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
	ctx.Aux[auxKeyArgmax] = argmax
}

// Backward routes each dY element to the recorded argmax location of its
// window. It uses only the argmax map — neither stashed X nor Y is read —
// which is exactly the property Binarize exploits.
func (p *MaxPoolOp) Backward(ctx *BwdCtx) {
	dy, dx := ctx.DOut, ctx.DIn[0]
	argmax := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
	n, c, ih, iw := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx.Zero()
	idx := 0
	for pl := 0; pl < n*c; pl++ {
		dxp := dx.Data[pl*ih*iw:][:ih*iw]
		for yh := 0; yh < oh; yh++ {
			for yw, g := range dy.Data[(pl*oh+yh)*ow:][:ow] {
				slot := int(argmax.Get(idx))
				xh := yh*p.Stride - p.Pad + slot/p.K
				xw := yw*p.Stride - p.Pad + slot%p.K
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
