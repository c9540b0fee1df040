package train

import (
	"fmt"

	"gist/internal/tensor"
)

// Dataset is a synthetic image-classification task that stands in for
// ImageNet in the scaled training experiments: each class is a fixed random
// prototype image, and each sample is its class prototype plus Gaussian
// noise. A small CNN separates the classes within a few hundred
// minibatches, which is exactly the regime the paper's Figure 12 accuracy
// comparison and Figure 14 sparsity ramp need.
type Dataset struct {
	Classes    int
	Channels   int
	Size       int
	NoiseStd   float64
	prototypes []*tensor.Tensor
	rng        *tensor.RNG
}

// NewDataset creates a dataset of the given geometry. Prototypes are drawn
// once from a unit normal; classes are fully distinct (margin 1).
func NewDataset(classes, channels, size int, noiseStd float64, seed uint64) *Dataset {
	return NewMarginDataset(classes, channels, size, noiseStd, 1, seed)
}

// NewMarginDataset creates a dataset whose class prototypes share a common
// component and differ only by a margin-scaled distinctive component:
// prototype_c = shared + margin * unique_c. Small margins make the class
// signal a fine distinction riding on a large common carrier — exactly the
// regime where immediate precision reduction (whose relative error is a
// fixed fraction of the carrier) destroys trainability while Gist's
// delayed reduction, with its exact forward pass, does not.
func NewMarginDataset(classes, channels, size int, noiseStd, margin float64, seed uint64) *Dataset {
	d := &Dataset{
		Classes: classes, Channels: channels, Size: size,
		NoiseStd: noiseStd,
		rng:      tensor.NewRNG(seed),
	}
	shared := tensor.New(1, channels, size, size)
	shared.FillNormal(d.rng, 0, 1)
	for c := 0; c < classes; c++ {
		p := tensor.New(1, channels, size, size)
		p.FillNormal(d.rng, 0, 1)
		p.Scale(float32(margin))
		p.Add(shared)
		d.prototypes = append(d.prototypes, p)
	}
	return d
}

// Batch samples a minibatch: labels cycle deterministically through the
// classes with randomized noise, so every batch is balanced. It is
// BatchInto into a freshly allocated x and labels.
func (d *Dataset) Batch(mb int) (*tensor.Tensor, []int) {
	x := tensor.New(mb, d.Channels, d.Size, d.Size)
	labels := make([]int, mb)
	d.BatchInto(x, labels)
	return x, labels
}

// BatchInto refills x and labels with the next minibatch of len(labels)
// rows, drawing the RNG exactly as Batch does, so a loop that refills one
// buffer pair sees the bits a loop of Batch calls would. x must hold
// len(labels) images of the dataset's geometry.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int) {
	per := d.Channels * d.Size * d.Size
	if len(x.Data) != len(labels)*per {
		panic(fmt.Sprintf("train: batch of %d elements for %d labels of %d elements", len(x.Data), len(labels), per))
	}
	for i := range labels {
		c := d.rng.Intn(d.Classes)
		labels[i] = c
		proto := d.prototypes[c]
		dst := x.Data[i*per : (i+1)*per]
		for j := range dst {
			dst[j] = proto.Data[j] + float32(d.NoiseStd*d.rng.NormFloat64())
		}
	}
}

// Skip fast-forwards the dataset past n minibatches of size mb without
// materializing them, consuming the RNG exactly as n Batch calls would.
// Resuming a checkpointed run uses it to realign the data stream with the
// restored step count, so the resumed run sees byte-identical batches.
func (d *Dataset) Skip(mb, n int) {
	per := d.Channels * d.Size * d.Size
	for b := 0; b < n; b++ {
		for i := 0; i < mb; i++ {
			d.rng.Intn(d.Classes)
			for j := 0; j < per; j++ {
				d.rng.NormFloat64()
			}
		}
	}
}
