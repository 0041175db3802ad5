package session

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
)

func TestObsFlagsRunLifecycle(t *testing.T) {
	// No flags: no registry, no profiler, no fault schedule.
	if err := (ObsFlags{}).Run(func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
		if reg != nil || prof.Enabled() || fr != nil {
			t.Error("empty flag block attached something")
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f := ObsFlags{
		Metrics: filepath.Join(dir, "m.prom"),
		Profile: filepath.Join(dir, "p.json"),
		Faults:  "ucudnn_fp_convolve=nth:1",
	}
	if err := f.Run(func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
		if reg == nil || !prof.Enabled() || fr.String() != f.Faults {
			t.Errorf("flags did not hand the body a registry, the profiler and the schedule %q (got %q)", f.Faults, fr.String())
		}
		reg.Counter("ucudnn_session_test_total").Inc()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Run switched the profiler off on the way out.
	if prof.Enabled() {
		t.Fatal("Run left the profiler on")
	}
	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ucudnn_session_test_total 1") {
		t.Fatalf("metrics file lacks the body's series:\n%s", data)
	}
	if _, err := os.Stat(f.Profile); err != nil {
		t.Fatal(err)
	}

	// A failing body switches the profiler off and writes no files; a
	// spec that does not parse fails before the body runs.
	f.Metrics, f.Profile = filepath.Join(dir, "m2.prom"), filepath.Join(dir, "p2.json")
	boom := errors.New("boom")
	if err := f.Run(func(*obs.Registry, *faults.Registry) ([]core.HandleReport, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the body's", err)
	}
	if prof.Enabled() {
		t.Fatal("failed Run left the profiler on")
	}
	if _, err := os.Stat(f.Metrics); err == nil {
		t.Fatal("failed Run wrote a metrics file")
	}
	f.Faults = "ucudnn_fp_convolv=nth:1"
	if err := f.Run(func(*obs.Registry, *faults.Registry) ([]core.HandleReport, error) {
		t.Error("body ran under a schedule that does not parse")
		return nil, nil
	}); err == nil {
		t.Fatal("Run accepted a misspelled point")
	}
}

// A -faults run's fired injections reach its -metrics file: the
// ucudnn_fault_injected_total series, summed over points, counts every
// shot in the schedule's log.
func TestObsFlagsCountFiredFaults(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	f := ObsFlags{
		Metrics: filepath.Join(t.TempDir(), "m.prom"),
		Faults:  "ucudnn_fp_convolve=every:4;ucudnn_fp_arena_grow=every:2,shrink=64",
	}
	var shots []faults.Shot
	if err := f.Run(func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
		cfg := modelOnly("alexnet", 16, "wd", 64*mib, 256*mib, 48*mib)
		cfg.Metrics, cfg.Faults = reg, fr
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.Net.RunIteration(); err != nil {
			return nil, err
		}
		shots = fr.Shots()
		return s.HandleReports(), nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]bool{}
	total := 0
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, faults.MetricFaultInjected+"{") {
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		points[name] = true
		total += n
	}
	if len(shots) == 0 || len(points) != 2 {
		t.Fatalf("%d shots over %d labelled points, want shots at both armed points:\n%s", len(shots), len(points), data)
	}
	if total != len(shots) {
		t.Fatalf("%s sums to %d in the -metrics file, the shot log holds %d", faults.MetricFaultInjected, total, len(shots))
	}
}
