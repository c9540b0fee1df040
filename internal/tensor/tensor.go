// Package tensor provides the dense NCHW float32 tensors that all layer
// kernels in this repository operate on. It is deliberately small: a tensor
// is a shape plus a flat []float32, and every operation that the training
// executor needs (fill, map, matmul helpers, deterministic random init) lives
// here so the layer code can stay focused on the math of each operator.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes an n-dimensional tensor extent. DNN feature maps use the
// 4-d NCHW convention (minibatch, channels, height, width); fully connected
// activations use 2-d (minibatch, features).
type Shape []int

// NumElements returns the product of all dimensions. An empty shape has one
// element (a scalar).
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Bytes returns the size of an FP32 tensor of this shape in bytes.
func (s Shape) Bytes() int64 {
	return int64(s.NumElements()) * 4
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as "[n c h w]".
func (s Shape) String() string {
	return fmt.Sprint([]int(s))
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Tensor is a dense FP32 tensor in row-major order (NCHW for 4-d shapes).
type Tensor struct {
	Shape Shape
	Data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{Shape: s, Data: make([]float32, s.NumElements())}
}

// FromSlice wraps the given backing slice in a tensor of the given shape.
// The slice is used directly, not copied. It panics if the element count
// does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: slice of %d elements cannot have shape %v (%d elements)",
			len(data), s, s.NumElements()))
	}
	return &Tensor{Shape: s, Data: data}
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.Data) }

// Bytes returns the FP32 storage size in bytes.
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// Reshape returns a tensor sharing this tensor's data with a new shape of
// the same element count. It panics on a count mismatch.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, s))
	}
	return &Tensor{Shape: s, Data: t.Data}
}

// At returns the element at the given NCHW coordinates of a 4-d tensor.
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[t.index(n, c, h, w)]
}

// Set stores v at the given NCHW coordinates of a 4-d tensor.
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.Data[t.index(n, c, h, w)] = v
}

func (t *Tensor) index(n, c, h, w int) int {
	s := t.Shape
	if len(s) != 4 {
		panic(fmt.Sprintf("tensor: 4-d indexing on %v", s))
	}
	return ((n*s[1]+c)*s[2]+h)*s[3] + w
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled accumulates a*o into t elementwise. Shapes must have the same
// element count.
func (t *Tensor) AddScaled(o *Tensor, a float32) {
	if len(o.Data) != len(t.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Add accumulates o into t elementwise.
func (t *Tensor) Add(o *Tensor) { t.AddScaled(o, 1) }

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Sparsity returns the fraction of elements that are exactly zero.
func (t *Tensor) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	zeros := 0
	for _, v := range t.Data {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(t.Data))
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// L2 returns the Euclidean norm of the tensor's elements.
func (t *Tensor) L2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Equal reports exact elementwise equality of shape and data.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.Shape.Equal(o.Shape) {
		return false
	}
	for i := range t.Data {
		if t.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether all elements are within tol of each other.
func (t *Tensor) AlmostEqual(o *Tensor, tol float64) bool {
	if !t.Shape.Equal(o.Shape) {
		return false
	}
	for i := range t.Data {
		if math.Abs(float64(t.Data[i])-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}
