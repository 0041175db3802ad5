package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// plainFill is the loop FillUniform must reproduce bit for bit.
func plainFill(dst []float32, rng *rand.Rand, scale float32) {
	for i := range dst {
		dst[i] = (rng.Float32()*2 - 1) * scale
	}
}

// sourceType is the dynamic type of rng's source, read the way blockPath
// reads it.
func sourceType(rng *rand.Rand) reflect.Type {
	return reflect.ValueOf(rng).Elem().Field(randSrc).Elem().Type()
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// sameStream draws from got and want through every Rand method the
// stream reaches and fails at the first difference.
func sameStream(t *testing.T, what string, got, want *rand.Rand) {
	t.Helper()
	check := func(method string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s = %v, want %v", what, method, g, w)
		}
	}
	for i := 0; i < 3000; i++ { // across a block boundary of a fresh lagStream
		check("Float32", got.Float32(), want.Float32())
	}
	check("Int63", got.Int63(), want.Int63())
	check("Uint64", got.Uint64(), want.Uint64())
	check("Intn", got.Intn(1000), want.Intn(1000))
	check("Perm", got.Perm(20), want.Perm(20))
	gb, wb := make([]byte, 13), make([]byte, 13)
	got.Read(gb)
	want.Read(wb)
	check("Read", gb, wb)
	got.Read(gb[:5]) // continues the 7-byte word the last Read left part-used
	want.Read(wb[:5])
	check("Read (buffered)", gb, wb)
	check("Float64", got.Float64(), want.Float64())
	got.Seed(77)
	want.Seed(77)
	for i := 0; i < 3000; i++ {
		check("Float32 after Seed", got.Float32(), want.Float32())
	}
	g, w := make([]float32, 1000), make([]float32, 1000)
	FillUniform(g, got, 0.5)
	plainFill(w, want, 0.5)
	sameBits(t, what+": fill after Seed", g, w)
	check("Uint64 after fill after Seed", got.Uint64(), want.Uint64())
}

// TestFillUniformMatchesMathRandStream fills 13 × 8 Mi values, one 1 Mi
// call at a time, for every seed the zoo, the harnesses and the
// benchmark draw parameters and inputs from: 1 and 42, testkit's spec
// seed 1 and its input seed 2, and the benchmark's seed, seed+1 and
// seed+2 for seeds 1-10. The span must hold a draw Float32 rejects, so
// that the redraw branch is known to run.
func TestFillUniformMatchesMathRandStream(t *testing.T) {
	const chunk, chunks = 1 << 20, 8
	got, want := make([]float32, chunk), make([]float32, chunk)
	rejected := 0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 42} {
		fast := rand.New(rand.NewSource(seed))
		ref := rand.New(rand.NewSource(seed))
		raw := rand.NewSource(seed).(rand.Source64)
		for c := 0; c < chunks; c++ {
			scale := float32(1) / float32(c+1)
			FillUniform(got, fast, scale)
			plainFill(want, ref, scale)
			sameBits(t, fmt.Sprintf("seed %d chunk %d", seed, c), got, want)
			// Count the draws Float32 skipped in this chunk.
			for n := 0; n < chunk; {
				if float32(float64(raw.Int63())/(1<<63)) == 1 {
					rejected++
					continue
				}
				n++
			}
		}
		if g, w, r := fast.Uint64(), ref.Uint64(), raw.Uint64(); g != w || w != r {
			t.Fatalf("seed %d: next draw after the span = %d, want %d (raw source %d)", seed, g, w, r)
		}
	}
	if rejected == 0 {
		t.Fatal("no rejected draw in the span: the redraw branch went untested")
	}
	t.Logf("%d rejected draws in %d values", rejected, 13*chunks*chunk)
}

// TestFillUniformLengths covers fills shorter than (the plain loop),
// equal to and just past the adopted state (607 draws), the lags' sums,
// and fills that end exactly where the first and the second block of the
// generator end, each followed by every Rand method on the continued
// stream.
func TestFillUniformLengths(t *testing.T) {
	for _, n := range []int{0, 1, 606, 607, 608, 880, 1214,
		lagBuf, 2*lagBuf - lagLong, 2*lagBuf - lagLong + 1} {
		got, want := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		g, w := make([]float32, n), make([]float32, n)
		FillUniform(g, got, 0.25)
		plainFill(w, want, 0.25)
		sameBits(t, fmt.Sprintf("length %d", n), g, w)
		sameStream(t, fmt.Sprintf("after a fill of %d", n), got, want)
	}
}

// TestFillUniformBackToBack fills twice from one generator: the second
// fill adopts the lagStream the first installed.
func TestFillUniformBackToBack(t *testing.T) {
	got, want := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i, n := range []int{1000, 5000, 3, 700} {
		if i > 0 && sourceType(got) != reflect.TypeOf((*lagStream)(nil)) {
			t.Fatalf("fill %d: source is %v, want the continuation", i, sourceType(got))
		}
		g, w := make([]float32, n), make([]float32, n)
		FillUniform(g, got, 3)
		plainFill(w, want, 3)
		sameBits(t, "back to back", g, w)
		got.Float32() // a draw between fills goes through the continuation
		want.Float32()
	}
	sameStream(t, "after four fills", got, want)
}

// TestFillUniformTakesBlockPath fails if this Go's math/rand no longer
// lets FillUniform adopt a NewSource generator, so that a toolchain
// upgrade cannot quietly send every weight through the per-value loop.
func TestFillUniformTakesBlockPath(t *testing.T) {
	if randSrc < 0 || randReadPos < 0 {
		t.Fatalf("rand.Rand has no src/readPos field (src %d, readPos %d)", randSrc, randReadPos)
	}
	rng := rand.New(rand.NewSource(1))
	if !blockPath(rng) {
		t.Fatalf("blockPath rejects rand.New(rand.NewSource(1)) (source %v)", sourceType(rng))
	}
	FillUniform(make([]float32, lagLong), rng, 1)
	if got := sourceType(rng); got != reflect.TypeOf((*lagStream)(nil)) {
		t.Fatalf("after a fill the source is %v, want *lagStream", got)
	}
}

// int63Only is a rand.Source that is not a rand.Source64.
type int63Only struct{ src rand.Source }

func (s int63Only) Int63() int64    { return s.src.Int63() }
func (s int63Only) Seed(seed int64) { s.src.Seed(seed) }

// TestFillUniformFallback covers the generators FillUniform must not
// adopt: a custom source, and a NewSource generator part-way through a
// Read, whose buffered bytes a new source would drop.
func TestFillUniformFallback(t *testing.T) {
	got := rand.New(int63Only{rand.NewSource(9)})
	want := rand.New(int63Only{rand.NewSource(9)})
	if blockPath(got) {
		t.Fatal("blockPath accepts a custom source")
	}
	g, w := make([]float32, 4000), make([]float32, 4000)
	FillUniform(g, got, 2)
	plainFill(w, want, 2)
	sameBits(t, "custom source", g, w)
	sameStream(t, "custom source", got, want)

	got, want = rand.New(rand.NewSource(10)), rand.New(rand.NewSource(10))
	gb, wb := make([]byte, 3), make([]byte, 3)
	got.Read(gb)
	want.Read(wb)
	if blockPath(got) {
		t.Fatal("blockPath accepts a generator part-way through a Read")
	}
	FillUniform(g, got, 2)
	plainFill(w, want, 2)
	sameBits(t, "mid-Read", g, w)
	got.Read(gb) // three of the four bytes buffered before the fill
	want.Read(wb)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("Read after the fill = %v, want %v", gb, wb)
	}
	sameStream(t, "mid-Read", got, want)
}

// BenchmarkDraw is the per-draw cost of Float32 on math/rand's source and
// on the lagStream a fill leaves behind (what dropout draws from after
// parameter init).
func BenchmarkDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  func() *rand.Rand
	}{
		{"NewSource", func() *rand.Rand { return rand.New(rand.NewSource(1)) }},
		{"lagStream", func() *rand.Rand {
			rng := rand.New(rand.NewSource(1))
			FillUniform(make([]float32, lagLong), rng, 1)
			return rng
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := c.rng()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += rng.Float32()
			}
			drawSink = sink
		})
	}
}

var drawSink float32
