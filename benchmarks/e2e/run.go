package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	// smoke runs one model-only iteration of everything: a schema and
	// plumbing check, not a measurement.
	smoke bool
	// spansPath is where the traced pass writes its Chrome trace ("" to
	// keep the spans in memory only).
	spansPath string
}

const (
	// setupReps is how many cold set-ups a timed run performs; setup_s is
	// their median, which keeps one slow page-fault storm out of it.
	setupReps = 3
	// minIters is the fewest timed iterations a run reports a median of.
	minIters = 3
	// minPairs is the fewest telemetry off/on iteration pairs of a
	// traced run.
	minPairs = 2
	// tracedWarmups is how many untimed iterations a traced run makes
	// after set-up. The timed pass has set up three times by the time it
	// measures; a traced run sets up once, and its first iterations still
	// pay for growing the heap (seen as +30% on inception_wd_ooc).
	tracedWarmups = 2
)

// runDetail is what a run knows beyond the contract line; the -all
// parent reads it from the line printed just before the result.
type runDetail struct {
	PlanHash string    `json:"plan_hash,omitempty"`
	IterMs   []float64 `json:"iter_ms,omitempty"`
	SetupS   []float64 `json:"setup_s,omitempty"`
	Note     string    `json:"note,omitempty"`
}

// coldCycle builds the workload and runs its first iteration: the whole
// of set-up, including plans decided lazily by the first Convolution*
// calls. On the plan workload this is also the timed unit.
func coldCycle(w workload, o buildOpts, spans *spanLog) (*instance, error) {
	o.spans = spans
	in, err := build(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	if err := in.iterate(spans, o.trace != nil); err != nil {
		return nil, fmt.Errorf("%s: first iteration: %w", w.Name, err)
	}
	if w.mode == planOnly {
		if err := in.checkPlans(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return in, nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runTimed is the end-to-end pass: tracing off, nothing interposed.
// Closed loop, one client: the next iteration starts when the previous
// one has finished.
func runTimed(w workload, c runConfig) (*runResult, *runDetail, error) {
	reps, fewest := setupReps, minIters
	if c.smoke {
		reps, fewest = 1, 1
	}
	o := buildOpts{seed: c.seed, smoke: c.smoke}
	var in *instance
	var setups []float64
	for r := 0; r < reps; r++ {
		in = nil
		runtime.GC() // the previous set-up's network must not count against this one
		start := time.Now()
		var err error
		if in, err = coldCycle(w, o, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	compute := !in.ctx.SkipCompute
	var warm outcome
	if compute {
		warm = in.outcome()
	}

	res := newResult(endToEnd)
	var iters []float64
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	for t0 := time.Now(); len(iters) < fewest || (!c.smoke && time.Since(t0).Seconds() < c.seconds); {
		start := time.Now()
		var err error
		if w.mode == planOnly {
			_, err = coldCycle(w, o, nil)
		} else {
			err = in.iterate(nil, false)
		}
		iters = append(iters, msSince(start))
		res.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "iteration %d failed: %v\n", res.Attempted, err)
			res.Failed++
		}
	}
	runtime.ReadMemStats(&mem)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}

	// The reference runs after the measurement so that its network never
	// counts towards peak_rss_mib; what it checks is the first iteration,
	// kept in warm.
	detail := &runDetail{IterMs: iters, SetupS: setups}
	if compute {
		ref, err := referenceOutcome(w, c.seed)
		if err == nil {
			err = checkAgainst(ref, warm)
		}
		if err != nil {
			detail.Note = err.Error()
			res.Failed = res.Attempted // every iteration computed the same thing
		}
	}
	res.Correct = res.Failed == 0
	res.set("iter_ms", median(iters))
	res.set("alloc_mib_per_iter", float64(mem.TotalAlloc-alloc0)/mib/float64(len(iters)))
	res.set("peak_rss_mib", rss)
	res.set("setup_s", median(setups))
	return res, detail, nil
}
