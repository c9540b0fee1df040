package main

// The yardstick is how the benchmark tells the program getting slower from
// the box getting slower. On this shared box the same code costs a quarter
// more when the CPU clock drops to its lower plateau (every few seconds to
// minutes) and up to 2.3x more while a neighbour keeps the sibling hardware
// thread busy (seconds at a time), and a small frozen compute kernel timed
// next to the code slows with it in both cases (README.md has the series).
// So every gated timing is read against that kernel: each timed operation
// is bracketed by a reading before and a reading after, its wall time is
// scaled by refNominalMS over their mean, and the usual estimator (a median)
// is applied to the scaled times. The kernel is the benchmark's own code and
// must never change: a change to it rescales every timing on record.
const (
	refC, refH, refW, refOut = 8, 16, 16, 8
	// refNominalMS is what one refKernel call is defined to take. It is
	// this box's reading on its slower plateau, so a calibrated millisecond
	// is a wall-clock millisecond there.
	refNominalMS = 0.25
	refReads     = 3
)

var (
	refX   = make([]float32, refC*refH*refW)
	refWts = make([]float32, refOut*refC*9)
	refY   = make([]float32, refOut*refH*refW)
)

func init() {
	for i := range refX {
		refX[i] = float32(i%7) * 0.1
	}
	for i := range refWts {
		refWts[i] = float32(i%5) * 0.01
	}
}

// refKernel is a naive 3x3 convolution over an 8x16x16 map, written the way
// the repo's direct convolution is (a float32 reduction behind index
// arithmetic and border branches), so it answers to the CPU's clock and to a
// busy sibling thread the way a training step does. About 0.15 MMAC over an
// 18 KB working set.
func refKernel() {
	for oc := 0; oc < refOut; oc++ {
		for yh := 0; yh < refH; yh++ {
			for yw := 0; yw < refW; yw++ {
				var sum float32
				for ic := 0; ic < refC; ic++ {
					for kh := 0; kh < 3; kh++ {
						xh := yh + kh - 1
						if xh < 0 || xh >= refH {
							continue
						}
						for kw := 0; kw < 3; kw++ {
							xw := yw + kw - 1
							if xw < 0 || xw >= refW {
								continue
							}
							sum += refX[(ic*refH+xh)*refW+xw] * refWts[((oc*refC+ic)*3+kh)*3+kw]
						}
					}
				}
				refY[(oc*refH+yh)*refW+yw] = sum
			}
		}
	}
}

// readYardstick returns the fastest of refReads timings of refKernel, in
// milliseconds: how fast the CPU runs this instant. The fastest of a few,
// because a single one is itself hit now and then by what the box adds.
func readYardstick() float64 { return fastestOf(refReads, refKernel) }

// calibrated scales an operation's wall-clock time by the yardstick readings
// taken right before and right after it: what the operation would have taken
// with the CPU at nominal speed.
func calibrated(wall, refBefore, refAfter float64) float64 {
	return wall * refNominalMS / ((refBefore + refAfter) / 2)
}

// speedOf is the CPU's median speed over a set of operations, relative to
// nominal, from their wall-clock and calibrated times. Ungated: it says what
// kind of minute the box was having.
func speedOf(wall, cal []float64) float64 {
	speeds := make([]float64, len(wall))
	for i := range wall {
		speeds[i] = ratio(cal[i], wall[i])
	}
	return median(speeds)
}
