package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// The Chrome rendering: thread-name metadata per used track and
// span/parent args on every complete event.
func TestWriteChromeSpanArgs(t *testing.T) {
	r := New()
	r.Add(Event{Name: "producer", Cat: "fwd", Track: TrackLayer,
		Start: 0, Dur: 2 * time.Microsecond, Span: 10})
	r.Add(Event{Name: "compute", Cat: "fwd", Track: TrackKernel,
		Start: 2 * time.Microsecond, Dur: 3 * time.Microsecond, Span: 11, Parent: 5})
	var buf bytes.Buffer
	if err := WriteChromeEvents(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	var names []string
	for _, ev := range out {
		switch ev["ph"] {
		case "M":
			meta++
			args := ev["args"].(map[string]interface{})
			names = append(names, args["name"].(string))
		case "X":
			complete++
			args := ev["args"].(map[string]interface{})
			if args["span"] == nil {
				t.Fatalf("complete event missing span arg: %v", ev)
			}
		default:
			t.Fatalf("unexpected event phase: %v", ev)
		}
	}
	if meta != 2 {
		t.Fatalf("thread_name metadata events = %d (%v), want 2", meta, names)
	}
	if complete != 2 {
		t.Fatalf("complete events = %d", complete)
	}
	for _, want := range []string{TrackName(TrackLayer), TrackName(TrackKernel)} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing track name %q in %v", want, names)
		}
	}
}

func TestTrackNames(t *testing.T) {
	seen := map[string]bool{}
	for _, tr := range []int{TrackKernel, TrackLayer, TrackFault, TrackIteration} {
		n := TrackName(tr)
		if n == "" || seen[n] {
			t.Fatalf("track %d name %q (empty or duplicate)", tr, n)
		}
		seen[n] = true
	}
	if TrackName(99) == "" {
		t.Fatal("unknown tracks still need a label")
	}
}
