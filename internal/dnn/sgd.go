package dnn

// SGD is stochastic gradient descent with momentum and optional weight
// decay, matching Caffe's solver update rule:
//
//	v = momentum*v + lr*(grad + decay*w);  w -= v
//
// Each product is rounded explicitly, so that no compiler fuses it into
// the add (Go allows that, and the arm64 backend does it).
type SGD struct {
	LR       float32
	Momentum float32
	Decay    float32
	velocity map[*Param][]float32
}

// NewSGD builds a solver.
func NewSGD(lr, momentum, decay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, Decay: decay, velocity: map[*Param][]float32{}}
}

// Step applies one update to every parameter.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = make([]float32, len(p.Data))
			s.velocity[p] = v
		}
		for i := range p.Data {
			g := p.Grad[i] + float32(s.Decay*p.Data[i])
			v[i] = float32(s.Momentum*v[i]) + float32(s.LR*g)
			p.Data[i] -= v[i]
		}
	}
}
