package tensor

import (
	"math/rand"
	"reflect"
)

// FillUniform stores (rng.Float32()*2 - 1) * scale into dst[0], dst[1], …
// in order, bit for bit, and leaves rng in the state that loop leaves it
// in: every later draw, Read, Perm or Seed on rng sees the same stream.
//
// On a generator made by rand.New(rand.NewSource(seed)) it does so at
// generator speed. That source is an additive lagged-Fibonacci generator,
// y[n] = y[n-607] + y[n-273] mod 2⁶⁴, whose state is just its last 607
// outputs. FillUniform reads the next 607 outputs through rng.Uint64 (each
// is the draw Float32 would have taken, so each is also the next value),
// generates the rest of the stream from them in blocks (lagStream),
// converts each draw with Float32's own rule, and installs the generator
// in rng so that later draws continue the same stream. A generator with any other
// source, one part-way through a Read, or a dst shorter than the 607
// adopted draws takes the plain loop.
func FillUniform(dst []float32, rng *rand.Rand, scale float32) {
	if len(dst) < lagLong || !blockPath(rng) {
		for i := range dst {
			dst[i] = uniform(rng.Float32(), scale)
		}
		return
	}
	s := &lagStream{pos: lagLong}
	for i := range s.buf[:lagLong] {
		s.buf[i] = rng.Uint64()
	}
	*rng = *rand.New(s)
	n := put(dst, s.buf[:lagLong], scale)
	s.fill(dst[n:], scale)
}

// uniform maps a draw f in [0, 1) to [-scale, scale]. f*2 is exact; the
// conversion keeps the compiler from fusing it with the subtraction.
func uniform(f, scale float32) float32 { return (float32(f*2) - 1) * scale }

// put converts the draws src into dst with Float32's rule and returns how
// many values it stored: a draw is Int63()/2⁶³, skipped when it rounds to
// 1 as a float64 or a float32 (about one draw in 2²⁴). dst must be at
// least as long as src.
func put(dst []float32, src []uint64, scale float32) int {
	n := 0
	for _, u := range src {
		f := float32(float64(int64(u&int63Mask)) / (1 << 63))
		if f == 1 {
			continue
		}
		dst[n] = uniform(f, scale)
		n++
	}
	return n
}

const (
	lagLong   = 607        // math/rand's rngLen: the longer lag and the state
	lagShort  = 273        // its rngTap: the shorter lag
	lagBuf    = 2048       // history plus a block of outputs; a power of two
	lagMask   = lagBuf - 1 // so that single draws index the buffer as a ring
	int63Mask = 1<<63 - 1  // Int63 is Uint64's low 63 bits
)

// The fields of rand.Rand that blockPath reads: the source and how many
// bytes of a Read are still buffered. -1 if this Go has renamed them.
var (
	randSrc     = randField("src")
	randReadPos = randField("readPos")
	lagSources  = [...]reflect.Type{reflect.TypeOf(rand.NewSource(0)), reflect.TypeOf((*lagStream)(nil))}
)

func randField(name string) int {
	f, ok := reflect.TypeOf(rand.Rand{}).FieldByName(name)
	if !ok || len(f.Index) != 1 {
		return -1
	}
	return f.Index[0]
}

// blockPath reports whether rng draws from math/rand's lagged-Fibonacci
// source (or a lagStream continuing one) with no Read bytes buffered, so
// that FillUniform may adopt its stream. Installing a new source drops
// rng's buffered Read bytes, hence the second condition.
func blockPath(rng *rand.Rand) bool {
	if randSrc < 0 || randReadPos < 0 {
		return false
	}
	v := reflect.ValueOf(rng).Elem()
	src, pos := v.Field(randSrc), v.Field(randReadPos)
	if src.Kind() != reflect.Interface || src.IsNil() || pos.Kind() != reflect.Int8 || pos.Int() != 0 {
		return false
	}
	t := src.Elem().Type()
	return t == lagSources[0] || t == lagSources[1]
}

// lagStream is math/rand's lagged-Fibonacci generator over one buffer: the
// last lagLong outputs sit just below the write position pos (modulo the
// buffer). A single draw uses the buffer as a ring, with no branch, and
// costs no more than rand.NewSource's; a fill generates a block at a time
// in a branch-free loop over the buffer as a line. It is a rand.Source64
// whose Seed behaves as rand.NewSource's.
type lagStream struct {
	pos uint
	buf [lagBuf]uint64
}

// Uint64 implements rand.Source64.
func (s *lagStream) Uint64() uint64 {
	p := s.pos
	x := s.buf[(p-lagLong)&lagMask] + s.buf[(p-lagShort)&lagMask]
	s.buf[p&lagMask] = x
	s.pos = p + 1
	return x
}

// Int63 implements rand.Source.
func (s *lagStream) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// Seed implements rand.Source: the stream becomes rand.NewSource(seed)'s.
// It takes that source's next lagLong outputs and runs the recurrence
// backwards, y[n-607] = y[n] - y[n-273], to the lagLong outputs before
// them.
func (s *lagStream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf[lagLong : 2*lagLong] {
		s.buf[lagLong+i] = src.Uint64()
	}
	for n := 2*lagLong - 1; n >= lagLong; n-- {
		s.buf[n-lagLong] = s.buf[n] - s.buf[n-lagShort]
	}
	s.pos = lagLong
}

// fill continues the stream into dst, a block at a time, on a stream no
// single draw has advanced yet (pos in [lagLong, lagBuf]), whose last
// lagLong outputs are therefore contiguous below pos. Each output reads
// one lagLong back and one lagShort back; past lagShort outputs into a
// block, the latter is a word the same loop wrote.
func (s *lagStream) fill(dst []float32, scale float32) {
	for len(dst) > 0 {
		if s.pos == lagBuf {
			copy(s.buf[:lagLong], s.buf[lagBuf-lagLong:])
			s.pos = lagLong
		}
		p := int(s.pos)
		end := min(lagBuf, p+len(dst))
		out := s.buf[p:end]
		far := s.buf[p-lagLong : end-lagLong]
		near := s.buf[p-lagShort : end-lagShort]
		for i := range out {
			out[i] = far[i] + near[i]
		}
		dst = dst[put(dst, out, scale):]
		s.pos = uint(end)
	}
}
