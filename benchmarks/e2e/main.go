// Command e2e is the repository's end-to-end benchmark: wall-clock
// training iterations of the whole µ-cuDNN stack (zoo networks over dnn,
// core, cudnn and the CPU kernels), with a traced pass that attributes
// the time to the layer it was spent in. BENCHMARK.json at the repository
// root declares its workloads and metrics; benchmarks/README.md explains
// them.
//
// One run, as the benchmark driver issues it:
//
//	e2e --workload alexnet_wr --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer metrics) as one
// JSON object on the last line of standard output. Every run is a fresh
// process because the profiler, causal scopes, fault registry and worker
// cap are process-global and the RSS high-water mark is per process.
//
// A whole set of runs, and the comparison of two sets:
//
//	e2e -all -runs 10 -label mine      # writes benchmarks/results/mine.json
//	e2e -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ucudnn/internal/conv"
)

// resultsDir is the only directory the harness writes to.
const resultsDir = "benchmarks/results"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run once (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed for parameter init, input, labels and dropout")
		seconds = flag.Float64("seconds", 15, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		smoke   = flag.Bool("smoke", false, "one model-only iteration per pass: checks plumbing, measures nothing")
		spans   = flag.String("spans", "", "where a traced run writes its spans (default "+resultsDir+"/<workload>.spans.json)")
		all     = flag.Bool("all", false, "run every workload (-runs timed runs and one traced run each) and write "+resultsDir+"/<label>.json")
		runs    = flag.Int("runs", 3, "timed runs per workload under -all, on seeds seed, seed+1, ...")
		label   = flag.String("label", "run", "name of the result file written by -all")
		compare = flag.Bool("compare", false, "compare two result files: e2e -compare a.json b.json")
	)
	flag.Parse()

	// Pinned, not inherited: plans depend on the worker cap.
	runtime.GOMAXPROCS(workers)
	conv.SetMaxWorkers(workers)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: e2e -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if regressed {
			os.Exit(1)
		}
	case *all:
		if err := runAll(allConfig{seed: *seed, seconds: *seconds, runs: *runs, label: *label, smoke: *smoke}); err != nil {
			fatal(1, err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(2, fmt.Sprintf("unknown workload %q; have %v", *name, workloadNames()))
		}
		c := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
		decls := endToEnd
		var res *runResult
		var detail *runDetail
		var err error
		if *traced != 0 {
			decls = perLayer
			c.spansPath = *spans
			if c.spansPath == "" {
				c.spansPath = filepath.Join(resultsDir, w.Name+".spans.json")
			}
			res, detail, err = runTraced(w, c)
		} else {
			res, detail, err = runTimed(w, c)
		}
		if err != nil {
			fatal(1, err)
		}
		printRun(w, decls, res, detail)
	}
}

func fatal(code int, v any) {
	fmt.Fprintln(os.Stderr, "e2e:", v)
	os.Exit(code)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// detailPrefix marks the line carrying a run's detail for the -all parent.
const detailPrefix = "detail "

// printRun prints every metric by name with its unit, then the detail
// line, then the contract line.
func printRun(w workload, decls []metricDecl, res *runResult, detail *runDetail) {
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", w.Name, res.Attempted, res.Failed, res.Correct)
	for _, d := range decls {
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if detail.Note != "" {
		fmt.Printf("  note: %s\n", detail.Note)
	}
	dj, err := json.Marshal(detail)
	if err != nil {
		fatal(1, err)
	}
	fmt.Printf("%s%s\n", detailPrefix, dj)
	rj, err := json.Marshal(res)
	if err != nil {
		fatal(1, err)
	}
	fmt.Printf("%s\n", rj)
}
