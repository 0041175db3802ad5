package dnn

import (
	"bytes"
	"math/rand"
	"testing"

	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/prof"
	"ucudnn/internal/trace"
)

// causalTimelineBytes runs the OOC test net under a blob budget with P
// kernel workers and returns the exported canonical timeline bytes.
func causalTimelineBytes(t *testing.T, workers int, profile bool) []byte {
	t.Helper()
	prev := conv.SetMaxWorkers(workers)
	defer conv.SetMaxWorkers(prev)
	if profile {
		prof.Enable()
		defer prof.Disable()
	}

	probeCtx := oocTestCtx()
	probeNet, _ := oocTestNet(probeCtx, 4)
	if err := probeNet.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(probeNet)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanOOC(m, (m.Peak(1, nil)+m.Peak(4, nil))/2)
	if err != nil {
		t.Fatal(err)
	}

	ctx := oocTestCtx()
	ctx.OOC = NewOOCState(m, plan)
	net, loss := oocTestNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	in := net.InputBlob().Data
	fill := rand.New(rand.NewSource(7))
	for i := range in.Data {
		in.Data[i] = fill.Float32()*2 - 1
	}
	loss.Labels = []int{0, 1, 2, 3}

	// Warm-up pass so plans are decided before the traced window.
	if err := net.RunIteration(); err != nil {
		t.Fatal(err)
	}

	rec := trace.New()
	ctx.Cudnn.SetTrace(rec)
	defer ctx.Cudnn.SetTrace(nil)
	ctx.Trace = rec
	for i := 0; i < 2; i++ {
		if err := net.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}

	// Validate also checks that the device stream tiles both iterations.
	tl := causal.Build(rec.Events(), rec.Scopes())
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The exported timeline is a function of the simulated device clock
// only: byte-identical across kernel worker counts and with profiling
// on or off.
func TestCausalTimelineDeterministic(t *testing.T) {
	ref := causalTimelineBytes(t, 1, false)
	if len(ref) == 0 {
		t.Fatal("empty timeline")
	}
	if got := causalTimelineBytes(t, 4, false); !bytes.Equal(ref, got) {
		t.Fatal("timeline differs between 1 and 4 workers")
	}
	if got := causalTimelineBytes(t, 4, true); !bytes.Equal(ref, got) {
		t.Fatal("timeline differs with profiling enabled")
	}
}
