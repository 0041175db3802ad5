package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeElemsBytes(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	if got := s.Elems(); got != 120 {
		t.Fatalf("Elems = %d, want 120", got)
	}
	if got := s.Bytes(); got != 480 {
		t.Fatalf("Bytes = %d, want 480", got)
	}
	if !s.Valid() {
		t.Fatal("shape should be valid")
	}
	if (Shape{0, 3, 4, 5}).Valid() {
		t.Fatal("zero batch should be invalid")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	x := New(2, 3, 5, 7)
	want := float32(0)
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			for h := 0; h < 5; h++ {
				for w := 0; w < 7; w++ {
					x.Set(n, c, h, w, want)
					want++
				}
			}
		}
	}
	// NCHW with W innermost means the linear data is the enumeration order.
	for i, v := range x.Data {
		if v != float32(i) {
			t.Fatalf("Data[%d] = %v, want %d", i, v, i)
		}
	}
	if x.At(1, 2, 4, 6) != float32(len(x.Data)-1) {
		t.Fatal("At last element mismatch")
	}
}

func TestSampleAliases(t *testing.T) {
	x := New(4, 2, 3, 3)
	rng := rand.New(rand.NewSource(1))
	x.Randomize(rng, 1)
	v := x.Sample(1, 2)
	if v.Shape != (Shape{2, 2, 3, 3}) {
		t.Fatalf("view shape = %v", v.Shape)
	}
	// Writing through the view must be visible in the parent.
	v.Set(0, 0, 0, 0, 42)
	if x.At(1, 0, 0, 0) != 42 {
		t.Fatal("view write not visible in parent")
	}
	if v.At(1, 1, 2, 2) != x.At(2, 1, 2, 2) {
		t.Fatal("view read mismatch")
	}
}

// A channel view aliases channels [c0, c0+n) of every sample, keeps the
// parent's stride through Sample, ends at its last sample's last element,
// and stays without storage when its parent has none.
func TestChannelsView(t *testing.T) {
	x := New(3, 5, 2, 2)
	x.Randomize(rand.New(rand.NewSource(2)), 1)
	v := x.Channels(1, 3)
	if v.Shape != (Shape{3, 3, 2, 2}) || v.Stride != 20 || len(v.Data) != 2*20+3*4 {
		t.Fatalf("view %v stride %d len %d", v.Shape, v.Stride, len(v.Data))
	}
	s := v.Sample(1, 2)
	for n := 0; n < 2; n++ {
		for c := 0; c < 3; c++ {
			if s.At(n, c, 1, 1) != x.At(n+1, c+1, 1, 1) {
				t.Fatalf("sample %d channel %d reads the wrong element", n, c)
			}
		}
	}
	s.Set(1, 2, 0, 1, 42)
	if x.At(2, 3, 0, 1) != 42 {
		t.Fatal("view write not visible in parent")
	}
	bare := Tensor{Shape: x.Shape, Stride: x.Stride}
	if c := bare.Channels(1, 3); c.Data != nil || c.Stride != 20 {
		t.Fatalf("view of a tensor without storage: %d elements, stride %d", len(c.Data), c.Stride)
	}
	if bare.Sample(1, 2).Data != nil {
		t.Fatal("sample of a tensor without storage has storage")
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 1, 1, 1).Sample(3, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Fill(3)
	y := x.Clone()
	y.Set(0, 0, 0, 0, 9)
	if x.At(0, 0, 0, 0) != 3 {
		t.Fatal("clone shares storage")
	}
}

func TestScaleZeroFill(t *testing.T) {
	x := New(1, 2, 2, 2)
	x.Fill(2)
	x.Scale(3)
	for _, v := range x.Data {
		if v != 6 {
			t.Fatalf("scale: got %v", v)
		}
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("zero failed")
		}
	}
}

func TestFilterIndex(t *testing.T) {
	w := NewFilter(2, 3, 3, 3)
	w.Set(1, 2, 2, 2, 5)
	if w.Data[len(w.Data)-1] != 5 {
		t.Fatal("filter index: last element mismatch")
	}
	if w.Filter.Elems() != 54 || w.Filter.Bytes() != 216 {
		t.Fatal("filter size mismatch")
	}
}

func TestMaxAbsDiffAllClose(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2.5, 3}
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if !AllClose(a, b, 0.6, 0) {
		t.Fatal("should be close with atol 0.6")
	}
	if AllClose(a, b, 0.4, 0) {
		t.Fatal("should not be close with atol 0.4")
	}
	if MaxAbs(b) != 3 {
		t.Fatal("MaxAbs")
	}
}

func TestConvShapeOut(t *testing.T) {
	// AlexNet conv2: 27x27 input, 5x5 kernel, pad 2, stride 1 -> 27x27.
	cs := ConvShape{
		In:     Shape{256, 64, 27, 27},
		Filt:   Filter{192, 64, 5, 5},
		Params: ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1},
	}
	if o := cs.OutShape(); o != (Shape{256, 192, 27, 27}) {
		t.Fatalf("conv2 out = %v", o)
	}
	if !cs.Valid() {
		t.Fatal("conv2 should be valid")
	}
	// AlexNet conv1: 224x224, 11x11, stride 4, pad 2 -> 55? (224+4-11)/4+1 = 55.
	cs1 := ConvShape{
		In:     Shape{256, 3, 224, 224},
		Filt:   Filter{64, 3, 11, 11},
		Params: ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4},
	}
	if o := cs1.OutShape(); o.H != 55 || o.W != 55 {
		t.Fatalf("conv1 out = %v, want 55x55", o)
	}
}

func TestConvShapeZeroParamsNormalized(t *testing.T) {
	cs := ConvShape{In: Shape{1, 1, 4, 4}, Filt: Filter{1, 1, 3, 3}}
	if o := cs.OutShape(); o.H != 2 || o.W != 2 {
		t.Fatalf("default params out = %v, want 2x2", o)
	}
}

func TestConvShapeInvalid(t *testing.T) {
	cs := ConvShape{In: Shape{1, 2, 4, 4}, Filt: Filter{1, 3, 3, 3}}
	if cs.Valid() {
		t.Fatal("channel mismatch should be invalid")
	}
	cs = ConvShape{In: Shape{1, 1, 2, 2}, Filt: Filter{1, 1, 3, 3}}
	if cs.Valid() {
		t.Fatal("kernel larger than input without padding should be invalid")
	}
}

func TestConvShapeWithN(t *testing.T) {
	cs := ConvShape{In: Shape{256, 3, 8, 8}, Filt: Filter{4, 3, 3, 3}, Params: Unit}
	cs2 := cs.WithN(32)
	if cs2.In.N != 32 || cs.In.N != 256 {
		t.Fatal("WithN must not mutate the receiver")
	}
	if cs2.OutShape().N != 32 {
		t.Fatal("output batch must follow input batch")
	}
}

func TestFwdFlops(t *testing.T) {
	cs := ConvShape{In: Shape{1, 1, 3, 3}, Filt: Filter{1, 1, 3, 3}, Params: Unit}
	// Single output element, 9 MACs, 18 flops.
	if f := cs.FwdFlops(); f != 18 {
		t.Fatalf("FwdFlops = %d, want 18", f)
	}
}

func TestFlopsProportionalToBatch(t *testing.T) {
	f := func(n uint8) bool {
		nn := int(n%16) + 1
		cs := ConvShape{In: Shape{1, 2, 6, 6}, Filt: Filter{3, 2, 3, 3}, Params: Unit}
		return cs.WithN(nn).FwdFlops() == int64(nn)*cs.FwdFlops()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDilatedOutShape(t *testing.T) {
	cs := ConvShape{
		In:     Shape{1, 1, 7, 7},
		Filt:   Filter{1, 1, 3, 3},
		Params: ConvParams{StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2},
	}
	// Effective kernel 5x5 -> out 3x3.
	if o := cs.OutShape(); o.H != 3 || o.W != 3 {
		t.Fatalf("dilated out = %v, want 3x3", o)
	}
}

func TestStringForms(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	if s.String() != "2x3x4x5" {
		t.Fatalf("shape string %q", s.String())
	}
	f := Filter{K: 4, C: 3, R: 2, S: 1}
	if f.String() != "4x3x2x1" {
		t.Fatalf("filter string %q", f.String())
	}
	p := ConvParams{PadH: 1, PadW: 2, StrideH: 3, StrideW: 4, DilationH: 5, DilationW: 6}
	if p.String() != "pad=1x2 stride=3x4 dilation=5x6" {
		t.Fatalf("params string %q", p.String())
	}
	cs := ConvShape{In: s, Filt: f, Params: p}
	if cs.String() == "" {
		t.Fatal("convshape string empty")
	}
}

func TestTensorAddAndCopyFrom(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Add(0, 0, 1, 1, 3)
	x.Add(0, 0, 1, 1, 4)
	if x.At(0, 0, 1, 1) != 7 {
		t.Fatal("Add accumulation wrong")
	}
	y := New(1, 1, 2, 2)
	y.CopyFrom(x)
	if y.At(0, 0, 1, 1) != 7 {
		t.Fatal("CopyFrom wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched CopyFrom must panic")
		}
	}()
	New(1, 1, 1, 1).CopyFrom(x)
}

func TestFilterTensorOps(t *testing.T) {
	w := NewFilter(2, 2, 2, 2)
	rng := rand.New(rand.NewSource(5))
	w.Randomize(rng, 1)
	if w.At(1, 1, 1, 1) == 0 && w.At(0, 0, 0, 0) == 0 {
		t.Fatal("randomize left zeros")
	}
	w.Add(0, 0, 0, 0, 2)
	c := w.Clone()
	w.Zero()
	for _, v := range w.Data {
		if v != 0 {
			t.Fatal("zero failed")
		}
	}
	if c.Data[0] == 0 && c.Data[1] == 0 {
		t.Fatal("clone shares storage with zeroed original")
	}
}

func TestIOBytes(t *testing.T) {
	cs := ConvShape{In: Shape{1, 1, 4, 4}, Filt: Filter{1, 1, 3, 3}, Params: Unit}
	want := cs.In.Bytes() + cs.Filt.Bytes() + cs.OutShape().Bytes()
	if cs.IOBytes() != want {
		t.Fatalf("IOBytes = %d, want %d", cs.IOBytes(), want)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 1, 1, 1)
}

func TestNewFilterPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFilter(1, 0, 1, 1)
}
