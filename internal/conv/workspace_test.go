package conv_test

import (
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
	"ucudnn/internal/zoo"
)

// Every kernel holds the workspace floor: a buffer one float short of
// MinWorkspace is rejected, and one of exactly MinWorkspace runs. Both
// hold through conv.Run and through the real-backend cuDNN handle that
// wraps it.
func TestRunRejectsSmallWorkspace(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 3, H: 8, W: 8},
		Filt:   tensor.Filter{K: 4, C: 3, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	y := tensor.NewShaped(cs.OutShape())
	h := cudnn.NewHandle(device.P100, cudnn.RealBackend)
	entries := map[string]func(op conv.Op, algo conv.Algo, ws []float32) error{
		"conv.Run": func(op conv.Op, algo conv.Algo, ws []float32) error {
			return conv.Run(op, algo, cs, x, w, y, 1, 0, ws)
		},
		"cudnn.Handle.Convolve": func(op conv.Op, algo conv.Algo, ws []float32) error {
			return h.Convolve(op, algo, cs, x, w, y, 1, 0, ws, int64(len(ws))*4)
		},
	}
	for _, op := range conv.Ops {
		for _, algo := range conv.AlgosFor(op) {
			need, ok := conv.MinWorkspace(op, algo, cs)
			if !ok {
				t.Fatalf("%v/%v unsupported on the test shape; pick a shape every algorithm accepts", op, algo)
			}
			floor := int((need + 3) / 4)
			for entry, run := range entries {
				if floor > 0 {
					if err := run(op, algo, make([]float32, floor-1)); err == nil {
						t.Errorf("%s %v/%v: ran on %d floats under a %d-byte floor", entry, op, algo, floor-1, need)
					}
				}
				if err := run(op, algo, make([]float32, floor)); err != nil {
					t.Errorf("%s %v/%v: floor-sized buffer rejected: %v", entry, op, algo, err)
				}
			}
		}
	}
}

// Workspace and MinWorkspace are pure functions of (op, algo, shape):
// the optimizers query them speculatively and in any order, so asking
// for every zoo kernel in reverse must give the answers asking forward
// gave.
func TestWorkspaceReportersOrderIndependent(t *testing.T) {
	type query struct {
		op   conv.Op
		algo conv.Algo
		cs   tensor.ConvShape
	}
	var queries []query
	for _, name := range zoo.Names() {
		for _, l := range zooConvLayers(t, name) {
			for _, op := range conv.Ops {
				for _, algo := range conv.AlgosFor(op) {
					queries = append(queries, query{op, algo, l.Shape()})
				}
			}
		}
	}
	type answer struct {
		full, least     int64
		fullOK, leastOK bool
	}
	ask := func(q query) (a answer) {
		a.full, a.fullOK = conv.Workspace(q.op, q.algo, q.cs)
		a.least, a.leastOK = conv.MinWorkspace(q.op, q.algo, q.cs)
		return a
	}
	forward := make([]answer, len(queries))
	for i, q := range queries {
		forward[i] = ask(q)
	}
	for i := len(queries) - 1; i >= 0; i-- {
		if got := ask(queries[i]); got != forward[i] {
			q := queries[i]
			t.Fatalf("%v/%v on %v: %+v asked in reverse, %+v asked forward", q.op, q.algo, q.cs, got, forward[i])
		}
	}
}
