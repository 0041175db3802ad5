package dnn

import (
	"math/rand"
	"testing"

	"ucudnn/internal/trace"
)

// TestLayerSpans verifies the Net executor records one span per layer
// per direction on track 1 when a trace recorder is attached.
func TestLayerSpans(t *testing.T) {
	ctx := testCtx()
	rec := trace.New()
	ctx.Trace = rec
	net, loss := buildTinyNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	net.InputBlob().Data.Randomize(rng, 1)
	loss.Labels = []int{0, 1, 2, 3}
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(); err != nil {
		t.Fatal(err)
	}
	layers := net.Layers()
	perDir := map[string]map[string]int{"forward": {}, "backward": {}}
	for _, ev := range rec.Events() {
		if ev.Cat != "forward" && ev.Cat != "backward" {
			continue
		}
		if ev.Track != 1 {
			t.Fatalf("layer span %q on track %d, want 1", ev.Name, ev.Track)
		}
		perDir[ev.Cat][ev.Name]++
	}
	for _, dir := range []string{"forward", "backward"} {
		for _, name := range layers {
			if perDir[dir][name] != 1 {
				t.Fatalf("%s spans for %q = %d, want 1", dir, name, perDir[dir][name])
			}
		}
	}
	// Detached recorder must add nothing.
	ctx.Trace = nil
	before := len(rec.Events())
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != before {
		t.Fatal("spans recorded with tracing disabled")
	}
}
