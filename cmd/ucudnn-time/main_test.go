package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ucudnn/internal/causal"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/session"
	"ucudnn/internal/trace"
)

func opts(net string, batch int, dev, mode, policy string, ws, total int64, iters int, db string) runOpts {
	return runOpts{Net: net, Batch: batch, Device: dev, Mode: mode, Policy: policy,
		WSMiB: ws, TotalMiB: total, Iters: iters, DB: db}
}

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		o    runOpts
	}{
		{"cudnn", opts("inception", 16, "p100", "cudnn", "powerOfTwo", 8, 0, 1, "")},
		{"wr", opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "")},
		{"wd", opts("inception", 16, "p100", "wd", "powerOfTwo", 8, 64, 1, "")},
		{"undivided", opts("inception", 16, "k80", "wr", "undivided", 8, 0, 1, "")},
		{"db", opts("inception", 16, "v100", "wr", "all", 8, 0, 1, filepath.Join(dir, "db.jsonl"))},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(c.o, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), "TOTAL") || !strings.Contains(buf.String(), "convolutions:") {
			t.Fatalf("%s: no per-layer table:\n%s", c.name, buf.String())
		}
	}
}

// TestRunTraceHasLayerSpans checks that `ucudnn-time -trace` holds
// exactly one span per layer per direction per traced iteration (the
// layer rows of the paper's Fig. 3) alongside the kernel spans.
func TestRunTraceHasLayerSpans(t *testing.T) {
	o := opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "")
	o.Trace = filepath.Join(t.TempDir(), "trace.json")
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	spans := map[[2]string]int{}
	kernels := 0
	for _, e := range events {
		switch {
		case e.Ph != "X":
		case e.Cat == "forward" || e.Cat == "backward":
			spans[[2]string{e.Cat, e.Name}]++
		case e.Cat != "iteration":
			kernels++
		}
	}
	if len(spans) == 0 || kernels == 0 {
		t.Fatalf("trace lacks layer or kernel spans: %d layer series, %d kernel events", len(spans), kernels)
	}
	for k, n := range spans {
		if n != 1 {
			t.Fatalf("%v spans = %d, want exactly 1", k, n)
		}
	}
}

func TestRunMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{filepath.Join(dir, "m.txt"), filepath.Join(dir, "m.prom")} {
		o := opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "")
		o.Metrics = path
		if err := run(o, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "ucudnn_opt_wr_seconds") {
			t.Fatalf("%s: no WR optimizer metrics in output", path)
		}
	}
}

// A -profile run writes both files: the -metrics registry exists under
// -profile too, and the profile report carries the per-phase time and
// passes -check.
func TestRunProfileMetrics(t *testing.T) {
	dir := t.TempDir()
	o := opts("inception", 4, "p100", "wr", "powerOfTwo", 8, 0, 1, "")
	o.Profile = filepath.Join(dir, "p.json")
	o.Metrics = filepath.Join(dir, "m.prom")
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# TYPE ucudnn_opt_wr_seconds histogram") {
		t.Fatal("-metrics of a -profile run lacks the WR optimizer series")
	}
	var buf bytes.Buffer
	if err := check(o.Profile, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ": valid ucudnn-profile-report/v1 (") || strings.Contains(buf.String(), " 0 phases)") {
		t.Fatalf("check output: %q", buf.String())
	}
}

// A blob-budgeted run's ucudnn_ooc_* series land in the run's one
// -metrics registry, with the values the out-of-core executor reports —
// including the ladder step an armed plan fault takes at set-up.
func TestRunOOCMetrics(t *testing.T) {
	const schedule = "ucudnn_fp_ooc_plan=nth:1"
	o := traceOpts("wd", 48)
	o.Batch, o.Iters = 16, 1
	o.Faults = schedule
	o.Metrics = filepath.Join(t.TempDir(), "m.prom")
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "ucudnn_ooc_") {
			got[name] = val
		}
	}

	// The same run, built directly under the same schedule.
	freg, err := faults.Parse(schedule)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(session.Config{Net: o.Net, Batch: o.Batch, Device: device.P100, Mode: o.Mode,
		Policy: core.PolicyPowerOfTwo, WS: o.WSMiB << 20, Total: o.TotalMiB << 20, BlobBudget: o.BlobMiB << 20,
		Backend: cudnn.ModelOnlyBackend, Faults: freg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Net.Time(o.Iters); err != nil {
		t.Fatal(err)
	}
	r := s.Ctx.OOC.Report()
	want := map[string]string{
		dnn.MetricOOCFetchBytes:                  strconv.FormatInt(r.FetchBytes, 10),
		dnn.MetricOOCSpillBytes:                  strconv.FormatInt(r.SpillBytes, 10),
		dnn.MetricOOCRecomputeBytes:              strconv.FormatInt(r.RecomputeBytes, 10),
		dnn.MetricOOCDegraded + `{stage="plan"}`: strconv.Itoa(r.Degraded),
	}
	if r.Degraded != 1 || r.FetchBytes == 0 {
		t.Fatalf("reference run: %+v, want one plan-time step and fetch traffic", r)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %q in the -metrics file, Report gives %s", name, got[name], v)
		}
	}
	for _, name := range []string{dnn.MetricOOCMicroBatches, dnn.MetricOOCPeakBytes} {
		if got[name] == "" {
			t.Errorf("-metrics file lacks %s", name)
		}
	}
}

// The out-of-core probe is sized outside the fault schedule: a schedule
// that drops every Find* candidate degrades the run's kernels but leaves
// the shapes-only probe alone, so a blob-budgeted run still completes
// (it runs without -blob-budget too).
func TestFaultsSkipOOCProbe(t *testing.T) {
	o := opts("alexnet", 16, "p100", "wd", "powerOfTwo", 64, 256, 1, "")
	o.Faults = "ucudnn_fp_find=every:1"
	for _, blob := range []int64{0, 48} {
		o.BlobMiB = blob
		if err := run(o, io.Discard); err != nil {
			t.Errorf("-blob-budget %d: %v", blob, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(opts("bogus", 8, "p100", "wr", "powerOfTwo", 8, 0, 1, ""), io.Discard); err == nil {
		t.Fatal("bogus net must error")
	}
	if err := run(opts("inception", 8, "bogus", "wr", "powerOfTwo", 8, 0, 1, ""), io.Discard); err == nil {
		t.Fatal("bogus device must error")
	}
	if err := run(opts("inception", 8, "p100", "bogus", "powerOfTwo", 8, 0, 1, ""), io.Discard); err == nil {
		t.Fatal("bogus mode must error")
	}
	if err := run(opts("inception", 8, "p100", "wr", "bogus", 8, 0, 1, ""), io.Discard); err == nil {
		t.Fatal("bogus policy must error")
	}
	if err := run(opts("inception", 8, "p100", "wd", "powerOfTwo", 8, 0, 1, ""), io.Discard); err == nil {
		t.Fatal("wd without total must error")
	}
	o := opts("inception", 8, "p100", "wr", "powerOfTwo", 8, 0, 1, "")
	o.Faults = "not a schedule"
	if err := run(o, io.Discard); err == nil {
		t.Fatal("malformed fault schedule must error")
	}
	// Fewer than one iteration has nothing to time or trace: an empty
	// timeline would pass -check.
	for _, iters := range []int{0, -3} {
		o := opts("inception", 8, "p100", "wr", "powerOfTwo", 8, 0, iters, "")
		o.Timeline = filepath.Join(t.TempDir(), "t.json")
		if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-iters") {
			t.Errorf("-iters %d: err = %v, want an -iters error", iters, err)
		}
		if _, err := os.Stat(o.Timeline); err == nil {
			t.Errorf("-iters %d wrote a timeline", iters)
		}
	}
}

// -workers takes 0 (the default) up to the profiler's 256 worker slots;
// anything else is an error, not a silently ignored or wrapped cap.
func TestRunRejectsWorkersOutOfRange(t *testing.T) {
	for _, workers := range []int{-1, 257} {
		o := opts("inception", 8, "p100", "wr", "powerOfTwo", 8, 0, 1, "")
		o.Workers = workers
		if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %d: err = %v, want a -workers error", workers, err)
		}
	}
}

func TestAllNetworksBuild(t *testing.T) {
	for _, n := range []string{"alexnet", "caffe-alexnet", "resnet18", "densenet40"} {
		if err := run(opts(n, 4, "p100", "cudnn", "powerOfTwo", 8, 0, 1, ""), io.Discard); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func traceOpts(mode string, blobMiB int64) runOpts {
	o := runOpts{Net: "alexnet", Batch: 32, Device: "p100", Mode: mode, Policy: "powerOfTwo",
		WSMiB: 64, Iters: 2, BlobMiB: blobMiB}
	if mode == "wd" {
		o.TotalMiB = 256
	}
	return o
}

// The run → export → check round trip: the emitted timeline passes the
// validator, and the check line counts the traced iterations.
func TestRunAndCheck(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "timeline.json")
	o := traceOpts("wr", 0)
	o.Timeline = out
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	var checkOut bytes.Buffer
	if err := check(out, &checkOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkOut.String(), " events, 2 iterations)") {
		t.Fatalf("check output: %q", checkOut.String())
	}
}

// The same round trip under a blob budget: the modeled transfers are
// serial charges on the device stream, so the exported timeline holds
// them as kernel-track leaves, and the stream still tiles every
// iteration (check enforces it).
func TestRunOOCAndCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.json")
	o := traceOpts("wd", 16)
	o.Net = "densenet40"
	o.Batch = 8
	o.Iters = 1
	o.Timeline = out
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if err := check(out, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl, err := causal.ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	transfers := 0
	for _, e := range tl.Events {
		if !strings.HasPrefix(e.Cat, "ooc_") {
			continue
		}
		transfers++
		if e.Track != trace.TrackKernel {
			t.Fatalf("transfer %q on track %d, want a device-stream leaf", e.Name, e.Track)
		}
	}
	if transfers == 0 {
		t.Fatal("blob-budgeted run recorded no transfer charges")
	}
}

// Degradation never opens a gap on the device stream: under injected
// convolve failures and shrunk arena grants the retried kernels still
// charge back to back, so the faulted export passes check's tiling rule
// and every iteration's stream leaves sum to its bracket. This is what
// lets the timeline go without a critical-path engine.
func TestRunFaultedTimelineTiles(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.json")
	o := traceOpts("wd", 48)
	o.Batch = 16
	o.Timeline = out
	o.Faults = "ucudnn_fp_convolve=every:4;ucudnn_fp_arena_grow=every:2,shrink=64"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if err := check(out, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := causal.ReadTimeline(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rungs := map[string]int{}
	var iters []trace.Event
	for _, e := range tl.Events {
		switch e.Cat {
		case "fault":
			if e.Track != trace.TrackFault {
				t.Fatalf("fault span %q on track %d, want %d", e.Name, e.Track, trace.TrackFault)
			}
			rungs[e.Name[strings.LastIndex(e.Name, "-> ")+3:]]++
		case "iteration":
			iters = append(iters, e)
		}
	}
	if rungs["pareto"] == 0 || rungs["finer"] == 0 {
		t.Fatalf("fault spans by rung %v, want pareto and finer", rungs)
	}
	if len(iters) != o.Iters {
		t.Fatalf("%d iteration brackets, want %d", len(iters), o.Iters)
	}
	for _, it := range iters {
		var busy time.Duration
		for _, e := range tl.Events {
			if e.Leaf() && e.Track == trace.TrackKernel && e.Start >= it.Start && e.End() <= it.End() {
				busy += e.Dur
			}
		}
		if busy != it.Dur {
			t.Fatalf("iteration %d: stream leaves sum to %d ns of %d", it.Span, busy, it.Dur)
		}
	}
}

// The determinism acceptance criterion, end to end through the CLI:
// identical bytes across worker counts.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	read := func(workers int) string {
		out := filepath.Join(dir, "tl.json")
		o := traceOpts("wr", 0)
		o.Workers = workers
		o.Timeline = out
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := read(1), read(4); a != b {
		t.Fatal("timeline bytes differ between 1 and 4 workers")
	}
}

// Chrome export writes span-enriched trace-event JSON with named tracks.
func TestRunChromeExport(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	o := traceOpts("wr", 0)
	o.Trace = chrome
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"M"`, `"ph":"X"`, `"span":`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("chrome trace missing %s", want)
		}
	}
}

// check must reject a tampered timeline, a document of a schema it does
// not know, and a profile report that breaks its invariants.
func TestCheckRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	o := traceOpts("wr", 0)
	o.Timeline = good
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad,
		bytes.Replace(data, []byte(`"schema": "ucudnn-causal-timeline/v1"`), []byte(`"schema": "bogus"`), 1),
		0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(bad, &buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("check accepted corrupt timeline: %v", err)
	}
	if err := check(filepath.Join(dir, "missing.json"), &buf); err == nil {
		t.Fatal("check accepted a missing file")
	}
	if err := os.WriteFile(bad, []byte(`{"schema": "ucudnn-profile-report/v1", "kernels": "nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(bad, &buf); err == nil {
		t.Fatal("check accepted a malformed profile report")
	}
}
