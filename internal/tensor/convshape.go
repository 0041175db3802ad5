package tensor

import "fmt"

// ConvParams holds the geometric parameters of a 2-D convolution
// (cross-correlation in the deep-learning convention), mirroring a cuDNN
// convolution descriptor.
type ConvParams struct {
	PadH, PadW           int
	StrideH, StrideW     int
	DilationH, DilationW int
}

// Unit is the default convolution: no padding, unit stride and dilation.
var Unit = ConvParams{StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1}

// Normalized returns p with zero stride/dilation fields promoted to 1 so
// that zero-valued ConvParams behave like Unit with no padding.
func (p ConvParams) Normalized() ConvParams {
	if p.StrideH == 0 {
		p.StrideH = 1
	}
	if p.StrideW == 0 {
		p.StrideW = 1
	}
	if p.DilationH == 0 {
		p.DilationH = 1
	}
	if p.DilationW == 0 {
		p.DilationW = 1
	}
	return p
}

func (p ConvParams) String() string {
	return fmt.Sprintf("pad=%dx%d stride=%dx%d dilation=%dx%d",
		p.PadH, p.PadW, p.StrideH, p.StrideW, p.DilationH, p.DilationW)
}

// ConvShape fully describes one convolution problem instance: input shape,
// filter bank and geometry. It is the key used by µ-cuDNN's caches and the
// performance model.
type ConvShape struct {
	In     Shape
	Filt   Filter
	Params ConvParams
}

// OutShape returns the output activation shape for the convolution, using
// the standard cuDNN output-dimension formula.
func (cs ConvShape) OutShape() Shape {
	p := cs.Params.Normalized()
	effR := (cs.Filt.R-1)*p.DilationH + 1
	effS := (cs.Filt.S-1)*p.DilationW + 1
	oh := (cs.In.H+2*p.PadH-effR)/p.StrideH + 1
	ow := (cs.In.W+2*p.PadW-effS)/p.StrideW + 1
	return Shape{cs.In.N, cs.Filt.K, oh, ow}
}

// Valid reports whether the convolution is well-formed: matching channel
// counts, positive output dimensions.
func (cs ConvShape) Valid() bool {
	if !cs.In.Valid() || !cs.Filt.Valid() || cs.In.C != cs.Filt.C {
		return false
	}
	o := cs.OutShape()
	return o.H > 0 && o.W > 0
}

// WithN returns the same convolution with a different batch size: the
// micro-batching transformation.
func (cs ConvShape) WithN(n int) ConvShape {
	cs.In = cs.In.WithN(n)
	return cs
}

// FwdFlops returns the number of fused multiply-add-derived floating point
// operations (2 per MAC) of a direct forward convolution.
func (cs ConvShape) FwdFlops() int64 {
	o := cs.OutShape()
	macs := int64(o.N) * int64(o.C) * int64(o.H) * int64(o.W) *
		int64(cs.Filt.C) * int64(cs.Filt.R) * int64(cs.Filt.S)
	return 2 * macs
}

// IOBytes returns the minimal memory traffic of the convolution: read
// input and filter once, write output once (float32).
func (cs ConvShape) IOBytes() int64 {
	return cs.In.Bytes() + cs.Filt.Bytes() + cs.OutShape().Bytes()
}

func (cs ConvShape) String() string {
	return fmt.Sprintf("in=%v filt=%v %v", cs.In, cs.Filt, cs.Params)
}
