package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndEventsSorted(t *testing.T) {
	r := New()
	r.Add(Event{Name: "b", Start: 10 * time.Microsecond, Dur: time.Microsecond})
	r.Add(Event{Name: "a", Start: 2 * time.Microsecond, Dur: time.Microsecond})
	r.Add(Event{Name: "c", Start: 20 * time.Microsecond, Dur: time.Microsecond})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Name != "a" || evs[1].Name != "b" || evs[2].Name != "c" {
		t.Fatalf("events not sorted: %v", evs)
	}
}

func TestWriteChromeFormat(t *testing.T) {
	r := New()
	r.Add(Event{Name: "Forward FFT@32", Cat: "conv", Start: 1500 * time.Nanosecond, Dur: 3 * time.Microsecond, Track: 0})
	r.Add(Event{Name: "relu", Cat: "layer", Start: 5 * time.Microsecond, Dur: time.Microsecond, Track: 1})
	var buf bytes.Buffer
	if err := WriteChromeEvents(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var all, out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	for _, ev := range all {
		if ev["ph"] == "X" {
			out = append(out, ev)
		}
	}
	if len(out) != 2 {
		t.Fatalf("complete events = %d", len(out))
	}
	first := out[0]
	if first["name"] != "Forward FFT@32" || first["ph"] != "X" || first["cat"] != "conv" {
		t.Fatalf("bad chrome event: %v", first)
	}
	if first["ts"].(float64) != 1 { // 1500ns -> 1us truncated
		t.Fatalf("ts = %v", first["ts"])
	}
	if out[1]["tid"].(float64) != 2 {
		t.Fatalf("tid = %v", out[1]["tid"])
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Add(Event{Name: "e", Start: time.Duration(i)})
		}(i)
	}
	wg.Wait()
	if n := len(r.Events()); n != 32 {
		t.Fatalf("len = %d", n)
	}
}

// TestEventsTotalOrder inserts events that tie on Start in two different
// arrival orders and asserts the exported order (and bytes) match: the
// sort key (Start, Track, Name) is total, so exports are deterministic
// across runs even when concurrent recorders race on insertion order.
func TestEventsTotalOrder(t *testing.T) {
	tied := []Event{
		{Name: "b", Cat: "conv", Start: 5 * time.Microsecond, Dur: time.Microsecond, Track: 1},
		{Name: "a", Cat: "conv", Start: 5 * time.Microsecond, Dur: time.Microsecond, Track: 1},
		{Name: "z", Cat: "layer", Start: 5 * time.Microsecond, Dur: time.Microsecond, Track: 0},
		{Name: "c", Cat: "conv", Start: time.Microsecond, Dur: time.Microsecond, Track: 2},
	}
	fwd, rev := New(), New()
	for _, ev := range tied {
		fwd.Add(ev)
	}
	for i := len(tied) - 1; i >= 0; i-- {
		rev.Add(tied[i])
	}
	want := []string{"c", "z", "a", "b"}
	for i, ev := range fwd.Events() {
		if ev.Name != want[i] {
			t.Fatalf("event %d = %q, want %q", i, ev.Name, want[i])
		}
	}
	var bufFwd, bufRev bytes.Buffer
	if err := WriteChromeEvents(&bufFwd, fwd.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeEvents(&bufRev, rev.Events()); err != nil {
		t.Fatal(err)
	}
	if bufFwd.String() != bufRev.String() {
		t.Fatalf("export depends on insertion order:\n%s\nvs\n%s", bufFwd.String(), bufRev.String())
	}
}

func TestEmptyWriteChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeEvents(&buf, New().Events()); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty trace = %q", buf.String())
	}
}
