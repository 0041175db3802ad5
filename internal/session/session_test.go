package session

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
)

const mib = int64(1 << 20)

// parentRun is what the pre-refactor ucudnn-time produced for one
// configuration (captured from commit 647ab44 on a 2-core host, i.e. at
// engine worker cap 2, with `-net alexnet -batch 8 -iters 1 -ws 8` plus
// the mode flags; see testdata/parent_alexnet_b8.json).
type parentRun struct {
	IterNS      int64    `json:"iter_ns"`
	Plans       []string `json:"plans"`
	WDWorkspace int64    `json:"wd_workspace"`
	OOCPeak     int64    `json:"ooc_peak"`
	OOCWindows  int      `json:"ooc_windows"`
}

// The shared constructor must reproduce the parent's hand-rolled
// build/probe/plan blocks exactly: same plans, same WD assignment, same
// out-of-core plan, same model-clock iteration time.
func TestNewMatchesParentRuns(t *testing.T) {
	// Striped workspace sizes (and so the plans) scale with the worker
	// cap; pin the one the expectation was captured at.
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	data, err := os.ReadFile("testdata/parent_alexnet_b8.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]parentRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		mode        string
		total, blob int64
	}{
		{"cudnn", "cudnn", 0, 0},
		{"wr", "wr", 0, 0},
		{"wd", "wd", 64 * mib, 0},
		{"wd+blob-budget", "wd", 64 * mib, 16 * mib},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Net: "alexnet", Batch: 8, Device: device.P100, Mode: c.mode,
				Policy: core.PolicyPowerOfTwo, WS: 8 * mib, Total: c.total, BlobBudget: c.blob,
				Backend: cudnn.ModelOnlyBackend})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Net.Time(1)
			if err != nil {
				t.Fatal(err)
			}
			got := parentRun{IterNS: int64(rep.Total()), Plans: []string{}}
			if s.UC != nil {
				for _, p := range s.UC.Plans() {
					got.Plans = append(got.Plans, p.String())
				}
				sort.Strings(got.Plans)
				if st := s.UC.WDStats(); st != nil {
					got.WDWorkspace = st.TotalWorkspace
				}
			}
			if p := s.OOCPlan; p != nil {
				got.OOCPeak, got.OOCWindows = p.PeakBytes, p.Windows
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no expectation for %q", c.name)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("session run differs from the parent's ucudnn-time:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

func TestNewRejects(t *testing.T) {
	base := Config{Net: "inception", Batch: 8, Device: device.P100, Mode: "wr",
		Policy: core.PolicyPowerOfTwo, WS: 8 * mib, Backend: cudnn.ModelOnlyBackend}
	for name, mutate := range map[string]func(*Config){
		"unknown net":      func(c *Config) { c.Net = "bogus" },
		"unknown mode":     func(c *Config) { c.Mode = "bogus" },
		"wd without total": func(c *Config) { c.Mode = "wd" },
	} {
		c := base
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("%s: New accepted %+v", name, c)
		}
	}
}

// Trace leaves the run detached, so a timed pass that follows records
// nothing, and refuses to trace fewer than one iteration.
func TestTraceDetaches(t *testing.T) {
	s, err := New(Config{Net: "inception", Batch: 8, Device: device.P100, Mode: "wr",
		Policy: core.PolicyPowerOfTwo, WS: 8 * mib, Backend: cudnn.ModelOnlyBackend})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.Trace(2)
	if err != nil {
		t.Fatal(err)
	}
	iterations := 0
	for _, sc := range tl.Scopes {
		if sc.Parent == 0 {
			iterations++
		}
	}
	if iterations != 2 {
		t.Fatalf("timeline has %d root scopes, want the 2 traced iterations", iterations)
	}
	if s.Ctx.Trace != nil || s.Inner.Trace() != nil {
		t.Fatal("Trace left a recorder attached")
	}
	for _, iters := range []int{0, -3} {
		if _, err := s.Trace(iters); err == nil {
			t.Errorf("Trace(%d) returned a timeline", iters)
		}
	}
}

// Two sessions in one process each report their own handle: the profile
// report's plan tables come from the session, not from a process-wide
// list of whatever handles exist.
func TestSessionsReportOwnHandle(t *testing.T) {
	var ids []int64
	for _, mode := range []string{"wr", "wd"} {
		s, err := New(Config{Net: "alexnet", Batch: 8, Device: device.P100, Mode: mode,
			Policy: core.PolicyPowerOfTwo, WS: 8 * mib, Total: 64 * mib, Backend: cudnn.ModelOnlyBackend})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Net.RunIteration(); err != nil {
			t.Fatal(err)
		}
		rep := core.BuildProfileReport(s.HandleReports())
		if len(rep.Handles) != 1 {
			t.Fatalf("%s session's report lists %d handles, want its own only", mode, len(rep.Handles))
		}
		h := rep.Handles[0]
		if want := s.UC.Report(); h.ID != want.ID || h.Mode != want.Mode || len(h.Plans) == 0 {
			t.Fatalf("%s session's report lists handle %d (%s, %d plans), want its own handle %d (%s)",
				mode, h.ID, h.Mode, len(h.Plans), want.ID, want.Mode)
		}
		ids = append(ids, h.ID)
	}
	if ids[0] == ids[1] {
		t.Fatalf("both sessions report handle %d", ids[0])
	}

	// The plain-cuDNN session has no µ-cuDNN handle to report.
	s, err := New(Config{Net: "alexnet", Batch: 8, Device: device.P100, Mode: "cudnn",
		WS: 8 * mib, Backend: cudnn.ModelOnlyBackend})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.HandleReports(); len(got) != 0 {
		t.Fatalf("cudnn session reports %d handles", len(got))
	}
}
