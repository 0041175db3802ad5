// Package tensor provides the dense float32 tensor types used throughout
// the µ-cuDNN reproduction: 4-D activation tensors in NCHW layout and 4-D
// filter tensors in KCRS layout, together with shape algebra for
// convolutions.
//
// Layout conventions follow cuDNN: an activation tensor has dimensions
// (N, C, H, W) = (batch, channels, height, width) stored with W innermost;
// a filter tensor has dimensions (K, C, R, S) = (output channels, input
// channels, kernel height, kernel width), also with S innermost.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes the dimensions of an NCHW activation tensor.
type Shape struct {
	N, C, H, W int
}

// Elems returns the total number of elements.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Bytes returns the storage size in bytes assuming float32 elements.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * 4 }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

// WithN returns the same shape with a different batch dimension.
func (s Shape) WithN(n int) Shape { return Shape{n, s.C, s.H, s.W} }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Tensor is a float32 tensor in NCHW layout whose samples are Stride
// elements apart: C·H·W when dense, more for a channel view (Channels).
// The whole-Data helpers (Zero, Fill, Scale, Clone, CopyFrom, Randomize)
// are for dense tensors: on a view they also touch the channels between
// its samples.
type Tensor struct {
	Shape  Shape
	Stride int
	Data   []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(n, c, h, w int) *Tensor {
	s := Shape{n, c, h, w}
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s, Stride: c * h * w, Data: make([]float32, s.Elems())}
}

// NewShaped allocates a zero-filled tensor with shape s.
func NewShaped(s Shape) *Tensor { return New(s.N, s.C, s.H, s.W) }

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[t.Index(n, c, h, w)]
}

// Set stores v at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.Data[t.Index(n, c, h, w)] = v
}

// Add accumulates v into the element at (n, c, h, w).
func (t *Tensor) Add(n, c, h, w int, v float32) {
	t.Data[t.Index(n, c, h, w)] += v
}

// Index returns the linear offset of (n, c, h, w).
func (t *Tensor) Index(n, c, h, w int) int {
	s := t.Shape
	return n*t.Stride + (c*s.H+h)*s.W + w
}

// view returns the tensor of shape s at Data offset off with t's stride;
// a tensor without host storage (nil Data) gives a view without any.
func (t *Tensor) view(s Shape, off int) Tensor {
	v := Tensor{Shape: s, Stride: t.Stride}
	if t.Data != nil {
		v.Data = t.Data[off : off+(s.N-1)*t.Stride+s.C*s.H*s.W]
	}
	return v
}

// Sample returns a view of the i-th batch sample onward covering count
// samples, sharing the underlying storage and keeping the stride. It is
// the mechanism by which micro-batches alias sub-ranges of a mini-batch
// without copying.
func (t *Tensor) Sample(i, count int) *Tensor {
	v := t.SampleView(i, count)
	return &v
}

// SampleView is Sample as a value, so a caller that keeps one re-points
// it without allocating.
func (t *Tensor) SampleView(i, count int) Tensor {
	s := t.Shape
	if i < 0 || count <= 0 || i+count > s.N {
		panic(fmt.Sprintf("tensor: sample [%d,%d) out of batch %d", i, i+count, s.N))
	}
	return t.view(Shape{count, s.C, s.H, s.W}, i*t.Stride)
}

// Channels returns channels [c0, c0+count) of every sample as a view:
// the same storage and stride, so no element is copied. The view is a
// value, so a caller that keeps one re-points it without allocating.
func (t *Tensor) Channels(c0, count int) Tensor {
	s := t.Shape
	if c0 < 0 || count <= 0 || c0+count > s.C {
		panic(fmt.Sprintf("tensor: channels [%d,%d) out of %d", c0, c0+count, s.C))
	}
	return t.view(Shape{s.N, count, s.H, s.W}, c0*s.H*s.W)
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies all elements by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	out := NewShaped(t.Shape)
	copy(out.Data, t.Data)
	return out
}

// CopyFrom copies src's data into t; shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, src.Data)
}

// Randomize fills the tensor with deterministic uniform values in
// [-scale, scale] drawn from rng (FillUniform).
func (t *Tensor) Randomize(rng *rand.Rand, scale float32) { FillUniform(t.Data, rng, scale) }

// Filter describes the dimensions of a KCRS filter tensor.
type Filter struct {
	K, C, R, S int
}

// Elems returns the total number of filter elements.
func (f Filter) Elems() int { return f.K * f.C * f.R * f.S }

// Bytes returns the storage size in bytes assuming float32 elements.
func (f Filter) Bytes() int64 { return int64(f.Elems()) * 4 }

// Valid reports whether all dimensions are positive.
func (f Filter) Valid() bool { return f.K > 0 && f.C > 0 && f.R > 0 && f.S > 0 }

func (f Filter) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", f.K, f.C, f.R, f.S)
}

// FilterTensor is a dense float32 filter bank in KCRS layout.
type FilterTensor struct {
	Filter Filter
	Data   []float32
}

// NewFilter allocates a zero-filled filter tensor.
func NewFilter(k, c, r, s int) *FilterTensor {
	f := Filter{k, c, r, s}
	if !f.Valid() {
		panic(fmt.Sprintf("tensor: invalid filter %v", f))
	}
	return &FilterTensor{Filter: f, Data: make([]float32, f.Elems())}
}

// At returns the element at (k, c, r, s).
func (w *FilterTensor) At(k, c, r, s int) float32 {
	return w.Data[w.Index(k, c, r, s)]
}

// Set stores v at (k, c, r, s).
func (w *FilterTensor) Set(k, c, r, s int, v float32) {
	w.Data[w.Index(k, c, r, s)] = v
}

// Add accumulates v into the element at (k, c, r, s).
func (w *FilterTensor) Add(k, c, r, s int, v float32) {
	w.Data[w.Index(k, c, r, s)] += v
}

// Index returns the linear offset of (k, c, r, s).
func (w *FilterTensor) Index(k, c, r, s int) int {
	f := w.Filter
	return ((k*f.C+c)*f.R+r)*f.S + s
}

// Zero sets all elements to zero.
func (w *FilterTensor) Zero() {
	for i := range w.Data {
		w.Data[i] = 0
	}
}

// Clone returns a deep copy of the filter tensor.
func (w *FilterTensor) Clone() *FilterTensor {
	out := NewFilter(w.Filter.K, w.Filter.C, w.Filter.R, w.Filter.S)
	copy(out.Data, w.Data)
	return out
}

// Randomize fills the filter with deterministic uniform values in
// [-scale, scale] drawn from rng (FillUniform).
func (w *FilterTensor) Randomize(rng *rand.Rand, scale float32) { FillUniform(w.Data, rng, scale) }

// MaxAbsDiff returns the maximum absolute elementwise difference between
// a and b, which must have equal length.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// MaxAbs returns the maximum absolute value in a.
func MaxAbs(a []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// AllClose reports whether a and b agree elementwise within a combined
// absolute/relative tolerance: |a-b| <= atol + rtol*max(|a|,|b|).
func AllClose(a, b []float32, atol, rtol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		d := math.Abs(x - y)
		if d > atol+float64(rtol*math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}
