package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const resultSchema = "ucudnn-e2e-bench/v1"

// hostInfo is the provenance block of a result file: enough to tell
// whether two files are comparable.
type hostInfo struct {
	CPU            string `json:"cpu"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"` // fewer CPUs than pinned workers: timings are not comparable
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	PlanDevice     string `json:"plan_device"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: "unknown", PlanDevice: "P100 (analytical model)",
	}
	h.Oversubscribed = h.NProc < workers
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runRecord is one child run as stored in a result file.
type runRecord struct {
	Seed   int64 `json:"seed"`
	Traced bool  `json:"traced"`
	runResult
	Detail runDetail `json:"detail"`
	// WallS is the whole child's duration, build and set-up included.
	WallS float64 `json:"wall_s"`
}

// workloadResult holds every run of one workload.
type workloadResult struct {
	Name     string      `json:"name"`
	Why      string      `json:"why"`
	PlanHash string      `json:"plan_hash"`
	Timed    []runRecord `json:"timed"`
	Traced   runRecord   `json:"traced"`
}

// values lists one end-to-end metric over the timed runs.
func (w workloadResult) values(metric string) []float64 {
	out := make([]float64, len(w.Timed))
	for i, r := range w.Timed {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func (w workloadResult) failedShare() float64 {
	var attempted, failed int
	for _, r := range w.Timed {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Label     string           `json:"label"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Runs      int              `json:"runs"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	WallS     float64          `json:"wall_s"`
	Workloads []workloadResult `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	for _, w := range f.Workloads {
		if len(w.Timed) == 0 {
			return nil, fmt.Errorf("%s: workload %s has no timed run", path, w.Name)
		}
		for _, d := range endToEnd {
			for _, r := range w.Timed {
				if _, ok := r.Metrics[d.Name]; !ok {
					return nil, fmt.Errorf("%s: workload %s: a timed run lacks %s", path, w.Name, d.Name)
				}
			}
		}
		for _, d := range perLayer {
			if _, ok := w.Traced.Metrics[d.Name]; !ok {
				return nil, fmt.Errorf("%s: workload %s: the traced run lacks %s", path, w.Name, d.Name)
			}
		}
	}
	return &f, nil
}

// parseRun reads a child's standard output: the contract line last, the
// detail line somewhere before it.
func parseRun(out []byte) (runResult, runDetail, error) {
	var res runResult
	var detail runDetail
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &detail); err != nil {
				return res, detail, fmt.Errorf("detail line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, detail, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, detail, nil
}

type allConfig struct {
	seed    int64
	seconds float64
	runs    int
	label   string
	smoke   bool
}

// runAll is the parent of a whole set: every run is a child process of
// this same binary, so nothing process-global leaks between runs.
func runAll(c allConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if c.smoke {
		c.runs = 1 // nothing is measured, so there is no spread to take
	}
	if c.runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	file := &resultFile{Schema: resultSchema, Label: c.label, Host: readHost(), Seed: c.seed, Runs: c.runs, Seconds: c.seconds, Smoke: c.smoke}
	if file.Host.Oversubscribed {
		fmt.Fprintf(os.Stderr, "e2e: only %d CPU for %d workers: timings of this set are not comparable\n", file.Host.NProc, workers)
	}
	begin := time.Now()
	child := func(w workload, seed int64, traced bool) (runRecord, error) {
		args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", "0"}
		if traced {
			args[len(args)-1] = "1"
			args = append(args, "-spans", filepath.Join(resultsDir, c.label+"."+w.Name+".spans.json"))
		}
		if c.smoke {
			args = append(args, "-smoke")
		}
		start := time.Now()
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		rec := runRecord{Seed: seed, Traced: traced, WallS: time.Since(start).Seconds()}
		if err != nil {
			return rec, fmt.Errorf("%s (seed %d, trace %v): %w", w.Name, seed, traced, err)
		}
		rec.runResult, rec.Detail, err = parseRun(out)
		return rec, err
	}
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name, Why: w.Why}
		for i := 0; i < c.runs; i++ {
			rec, err := child(w, c.seed+int64(i), false)
			if err != nil {
				return err
			}
			fmt.Printf("%-18s seed %-3d iter_ms %10.3f  setup_s %7.3f  (%.1f s)\n", w.Name, rec.Seed,
				rec.Metrics["iter_ms"].Value, rec.Metrics["setup_s"].Value, rec.WallS)
			wr.Timed = append(wr.Timed, rec)
		}
		if wr.Traced, err = child(w, c.seed, true); err != nil {
			return err
		}
		wr.PlanHash = wr.Traced.Detail.PlanHash
		fmt.Printf("%-18s traced  (%.1f s)\n", w.Name, wr.Traced.WallS)
		file.Workloads = append(file.Workloads, wr)
	}
	file.WallS = time.Since(begin).Seconds()
	path := filepath.Join(resultsDir, c.label+".json")
	if err := file.write(path); err != nil {
		return err
	}
	printReport(os.Stdout, file)
	fmt.Printf("\nwrote %s (%.0f s)\n", path, file.WallS)
	for _, w := range file.Workloads {
		if w.failedShare() > 0 || !w.Traced.Correct {
			return fmt.Errorf("%s: failed share %.3f, traced pass correct=%v", w.Name, w.failedShare(), w.Traced.Correct)
		}
	}
	return nil
}
