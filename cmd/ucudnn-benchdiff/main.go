// Command ucudnn-benchdiff closes the repo's perf-telemetry loop: it
// turns `go test -bench` output into a schema'd JSON report (-emit) and
// compares two reports with per-benchmark thresholds, failing on a
// >15% ns/op regression (configurable) or any allocs/op increase.
//
//	go test -run=NONE -bench=. -benchmem ./internal/conv/ | ucudnn-benchdiff -emit > report.json
//	ucudnn-benchdiff BENCH_kernels.json report.json
//
// The baseline may be either a report emitted by -emit (schema
// ucudnn-bench-report/v1) or the committed BENCH_kernels.json shape,
// whose entries carry their numbers in an "engine" sub-object. An entry
// may set "max_regress" (e.g. 0.30) to loosen its ns/op threshold —
// noisy benchmarks get per-benchmark slack instead of a global one.
//
// Exit status: 0 clean, 1 regression detected, 2 usage or parse error.
// -informational prints violations but exits 0 (the CI mode until a
// quiet multicore runner exists; see the BENCH_kernels.json host note).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies reports emitted by -emit.
const Schema = "ucudnn-bench-report/v1"

// Metrics is one benchmark's measured numbers.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the -emit output shape.
type Report struct {
	Schema     string             `json:"schema"`
	Host       map[string]string  `json:"host,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// baselineEntry accepts both report shapes: flat metrics (report/v1)
// or the BENCH_kernels.json form with an "engine" sub-object. Either
// may set MaxRegress to override the global ns/op threshold.
type baselineEntry struct {
	Metrics
	Engine     *Metrics `json:"engine"`
	MaxRegress float64  `json:"max_regress,omitempty"`
}

func (e baselineEntry) metrics() Metrics {
	if e.Engine != nil {
		return *e.Engine
	}
	return e.Metrics
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ucudnn-benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	emit := fs.Bool("emit", false, "parse `go test -bench` output on stdin and emit a JSON report")
	threshold := fs.Float64("threshold", 0.15, "allowed fractional ns/op regression (0.15 = +15%)")
	informational := fs.Bool("informational", false, "report violations but exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *emit {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: ucudnn-benchdiff -emit < bench-output > report.json")
			return 2
		}
		return runEmit(stdin, stdout, stderr)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ucudnn-benchdiff [-threshold f] [-informational] baseline.json current.json")
		return 2
	}
	violations, err := compareFiles(fs.Arg(0), fs.Arg(1), *threshold)
	if err != nil {
		fmt.Fprintln(stderr, "ucudnn-benchdiff:", err)
		return 2
	}
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "benchdiff: no regressions")
		return 0
	}
	for _, v := range violations {
		fmt.Fprintln(stdout, "benchdiff:", v)
	}
	if *informational {
		fmt.Fprintf(stdout, "benchdiff: %d violation(s), informational mode — not failing\n", len(violations))
		return 0
	}
	return 1
}

// runEmit parses `go test -bench -benchmem` output into a Report.
func runEmit(stdin io.Reader, stdout, stderr io.Writer) int {
	benches, err := parseBenchOutput(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ucudnn-benchdiff:", err)
		return 2
	}
	r := Report{
		Schema: Schema,
		Host: map[string]string{
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"cores":      strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
		Benchmarks: benches,
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fmt.Fprintln(stderr, "ucudnn-benchdiff:", err)
		return 2
	}
	return 0
}

// parseBenchOutput extracts benchmark result lines of the form
//
//	BenchmarkName-8  100  123456 ns/op  32 B/op  4 allocs/op
//
// keyed by the name with the "Benchmark" prefix and "-GOMAXPROCS"
// suffix stripped (matching the BENCH_kernels.json keys). A name that
// repeats (go test -count N) keeps its fastest ns/op — the run least
// disturbed by the host — and its largest B/op and allocs/op.
func parseBenchOutput(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i++ {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q for %s", v, name)
				}
				m.NsPerOp = f
				seen = true
			case "B/op":
				m.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				m.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if !seen {
			continue
		}
		if prev, ok := out[name]; ok {
			m.NsPerOp = min(m.NsPerOp, prev.NsPerOp)
			m.BytesPerOp = max(m.BytesPerOp, prev.BytesPerOp)
			m.AllocsPerOp = max(m.AllocsPerOp, prev.AllocsPerOp)
		}
		out[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return out, nil
}

// loadBaseline reads either report shape into name -> (metrics, threshold
// override).
func loadBaseline(path string) (map[string]baselineEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw struct {
		Benchmarks map[string]baselineEntry `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(raw.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return raw.Benchmarks, nil
}

// compareFiles diffs current against baseline and returns the sorted
// violation messages.
func compareFiles(basePath, curPath string, threshold float64) ([]string, error) {
	base, err := loadBaseline(basePath)
	if err != nil {
		return nil, err
	}
	curEntries, err := loadBaseline(curPath)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		old := base[name].metrics()
		curEntry, ok := curEntries[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current report", name))
			continue
		}
		cur := curEntry.metrics()
		limit := threshold
		if base[name].MaxRegress > 0 {
			limit = base[name].MaxRegress
		}
		if old.NsPerOp > 0 {
			ratio := cur.NsPerOp / old.NsPerOp
			if ratio > 1+limit {
				violations = append(violations, fmt.Sprintf(
					"%s: ns/op regressed %.1f%% (%.0f -> %.0f, limit +%.0f%%)",
					name, (ratio-1)*100, old.NsPerOp, cur.NsPerOp, limit*100))
			}
		}
		if cur.AllocsPerOp > old.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op increased %d -> %d (any increase fails)",
				name, old.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	return violations, nil
}
