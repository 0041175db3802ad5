package session

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/core"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
)

func TestObsFlagsRunLifecycle(t *testing.T) {
	// No flags: no registry, no profiler, nothing armed.
	if err := (ObsFlags{}).Run(func(reg *obs.Registry) ([]core.HandleReport, error) {
		if reg != nil || prof.Enabled() || faults.Active() != nil {
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
	if err := f.Run(func(reg *obs.Registry) ([]core.HandleReport, error) {
		if reg == nil || !prof.Enabled() || faults.Active() == nil {
			t.Error("flags did not attach registry, profiler and fault schedule")
		}
		reg.Counter("ucudnn_session_test_total").Inc()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Run switched the profiler off and disarmed the schedule on the way
	// out.
	if prof.Enabled() || faults.Active() != nil {
		t.Fatal("Run left the profiler or the fault schedule attached")
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

	// A failing body detaches everything and writes no files.
	f.Metrics, f.Profile = filepath.Join(dir, "m2.prom"), filepath.Join(dir, "p2.json")
	boom := errors.New("boom")
	if err := f.Run(func(*obs.Registry) ([]core.HandleReport, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the body's", err)
	}
	if prof.Enabled() || faults.Active() != nil {
		t.Fatal("failed Run left the profiler or the fault schedule attached")
	}
	if _, err := os.Stat(f.Metrics); err == nil {
		t.Fatal("failed Run wrote a metrics file")
	}
}
