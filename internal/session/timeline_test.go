package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
)

// tracedRun is one traced configuration: the run, the fault schedule
// armed around it ("" for none) and the traced iteration count.
type tracedRun struct {
	cfg    Config
	faults string
	iters  int
}

// modelOnly is a timing-only run of net under mode, as ucudnn-time
// builds it without -profile.
func modelOnly(net string, batch int, mode string, ws, total, blob int64) Config {
	return Config{Net: net, Batch: batch, Device: device.P100, Mode: mode,
		Policy: core.PolicyPowerOfTwo, WS: ws, Total: total, BlobBudget: blob,
		Backend: cudnn.ModelOnlyBackend}
}

// traceJSON runs r's traced iterations and returns the exported
// canonical timeline bytes.
func traceJSON(r tracedRun) ([]byte, error) {
	if r.faults != "" {
		freg, err := faults.Parse(r.faults)
		if err != nil {
			return nil, err
		}
		faults.Install(freg)
		defer faults.Install(nil)
	}
	s, err := New(r.cfg)
	if err != nil {
		return nil, err
	}
	tl, err := s.Trace(r.iters)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = tl.WriteJSON(&b)
	return b.Bytes(), err
}

// The exported timeline bytes of three runs are pinned by their SHA-256
// (testdata/timeline_fingerprints.json, recorded at engine worker cap 2):
// the `make smoke` run, the same run under the fault schedule that puts
// fault spans on the timeline, and a blob-budgeted DenseNet whose
// out-of-core charges land on the device stream. A change to how spans
// are stamped, ordered or renumbered must leave these bytes alone.
func TestTimelineFingerprints(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	data, err := os.ReadFile("testdata/timeline_fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	smoke := modelOnly("alexnet", 16, "wd", 64*mib, 256*mib, 48*mib)
	runs := map[string]tracedRun{
		"alexnet_b16_wd_smoke": {cfg: smoke, iters: 1},
		"alexnet_b16_wd_faulted": {cfg: smoke, iters: 2,
			faults: "ucudnn_fp_convolve=every:4;ucudnn_fp_arena_grow=every:2,shrink=64"},
		"densenet40_b8_wd_blob16": {cfg: modelOnly("densenet40", 8, "wd", 64*mib, 256*mib, 16*mib), iters: 1},
	}
	if len(want) != len(runs) {
		t.Fatalf("%d pinned fingerprints, want one per run (%d)", len(want), len(runs))
	}
	for name, r := range runs {
		data, err := traceJSON(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: timeline sha256 %s, pinned %s", name, got, want[name])
		}
	}
}

// Each traced run numbers and parents its spans on its own recorder:
// two runs traced at once in one process export the same bytes as
// each traced alone. (Profiling stays off: its rows are process-wide.)
func TestConcurrentTracesMatchSolo(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	runs := []tracedRun{
		{cfg: modelOnly("alexnet", 8, "wr", 8*mib, 0, 0), iters: 2},
		{cfg: modelOnly("inception", 8, "wd", 8*mib, 64*mib, 16*mib), iters: 2},
	}
	solo := make([][]byte, len(runs))
	for i, r := range runs {
		var err error
		if solo[i], err = traceJSON(r); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		got := make([][]byte, len(runs))
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = traceJSON(r)
			}()
		}
		wg.Wait()
		for i := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(got[i], solo[i]) {
				t.Fatalf("round %d: %s %s traced alongside another run differs from its solo timeline",
					round, runs[i].cfg.Net, runs[i].cfg.Mode)
			}
		}
	}
}
