// Command ucudnn-time is the `caffe time` equivalent: it builds one of
// the zoo networks over the simulated device, runs timed forward-backward
// iterations, and prints the per-layer breakdown — under plain cuDNN or
// µ-cuDNN (WR or WD). With -timeline or -trace it also runs -iters
// causally traced iterations and exports the unified timeline; -check
// validates a timeline or profile-report file.
//
// Usage:
//
//	ucudnn-time -net alexnet -batch 256 -device p100 -mode wr -policy powerOfTwo -ws 64
//	ucudnn-time -net resnet50 -batch 32 -mode wd -total 2544
//	ucudnn-time -net alexnet -mode wr -profile prof.json     # forces real compute
//	ucudnn-time -net alexnet -mode wr -timeline timeline.json -trace chrome.json
//	ucudnn-time -net densenet40 -batch 64 -mode wd -total 512 -blob-budget 96 -timeline t.json
//	ucudnn-time -check timeline.json                         # or a -profile report
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ucudnn/internal/blas"
	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/obs"
	"ucudnn/internal/session"
	"ucudnn/internal/zoo"
)

// runOpts mirrors the command-line flags.
type runOpts struct {
	Net      string
	Batch    int
	Device   string
	Mode     string
	Policy   string
	WSMiB    int64
	TotalMiB int64
	Iters    int
	BlobMiB  int64
	DB       string
	Workers  int

	Timeline string
	Trace    string
	Check    string

	session.ObsFlags
}

func main() {
	var o runOpts
	flag.StringVar(&o.Net, "net", "alexnet", "network: "+strings.Join(zoo.Names(), ", "))
	flag.IntVar(&o.Batch, "batch", 256, "mini-batch size")
	flag.StringVar(&o.Device, "device", "p100", "device: k80, p100, v100")
	flag.StringVar(&o.Mode, "mode", "wr", "mode: cudnn, wr, wd")
	flag.StringVar(&o.Policy, "policy", "powerOfTwo", "batch-size policy: undivided, powerOfTwo, all")
	flag.Int64Var(&o.WSMiB, "ws", 64, "per-kernel workspace limit (MiB)")
	flag.Int64Var(&o.TotalMiB, "total", 0, "WD total workspace (MiB; required for -mode wd)")
	flag.IntVar(&o.Iters, "iters", 3, "timed (and, with the timeline flags, traced) iterations, at least 1")
	flag.Int64Var(&o.BlobMiB, "blob-budget", 0,
		"out-of-core blob budget (MiB): stream activations in micro-batch windows under this working-set bound (0 = off)")
	flag.StringVar(&o.DB, "db", "", "benchmark database file (optional)")
	flag.IntVar(&o.Workers, "workers", 0, fmt.Sprintf("kernel worker cap, at most %d: bounds every convolution, SGEMM and layer fork (0 = leave default); the exported timeline is byte-identical across worker counts", blas.WorkerCap))
	flag.StringVar(&o.Timeline, "timeline", "", "write the canonical causal timeline JSON here")
	flag.StringVar(&o.Trace, "trace", "", "write the causal timeline as Chrome trace-event JSON (named tracks) here")
	flag.StringVar(&o.Check, "check", "", "validate a causal-timeline or profile-report JSON file (dispatching on its schema field) and exit")
	o.ObsFlags.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if o.Check != "" {
		err = check(o.Check, os.Stdout)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// check validates a file written by -timeline or -profile, picking the
// validator from the document's schema field.
func check(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch doc.Schema {
	case causal.Schema:
		return checkTimeline(path, data, w)
	case core.ProfileSchema:
		if err := core.ValidateProfile(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var rep core.ProfileReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: valid %s (%d kernels, %d handles, %d phases)\n",
			path, rep.Schema, len(rep.Kernels), len(rep.Handles), len(rep.TopPhases))
		return nil
	}
	return fmt.Errorf("%s: unknown schema %q (want %s or %s)", path, doc.Schema, causal.Schema, core.ProfileSchema)
}

// checkTimeline applies the timeline invariants (Timeline.Validate:
// schema, IDs, order, overlap and the device stream tiling every
// iteration).
func checkTimeline(path string, data []byte, w io.Writer) error {
	t, err := causal.ReadTimeline(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	iters := 0
	for _, e := range t.Events {
		if e.Cat == "iteration" {
			iters++
		}
	}
	fmt.Fprintf(w, "%s: ok (%d scopes, %d events, %d iterations)\n",
		path, len(t.Scopes), len(t.Events), iters)
	return nil
}

func run(o runOpts, w io.Writer) error {
	if o.Workers < 0 || o.Workers > blas.WorkerCap {
		return fmt.Errorf("-workers %d: want 0 (leave the default) to %d", o.Workers, blas.WorkerCap)
	}
	if o.Iters < 1 {
		return fmt.Errorf("-iters %d: want at least 1", o.Iters)
	}
	return o.ObsFlags.Run(func(reg *obs.Registry) ([]core.HandleReport, error) { return runNet(o, reg, w) })
}

func runNet(o runOpts, reg *obs.Registry, w io.Writer) ([]core.HandleReport, error) {
	d, err := device.ByName(o.Device)
	if err != nil {
		return nil, err
	}
	pol, err := core.ParsePolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	if o.Workers > 0 {
		prev := conv.SetMaxWorkers(o.Workers)
		defer conv.SetMaxWorkers(prev)
	}
	// Phase profiling needs the kernels to actually run, so -profile
	// trades the model-only fast path for real compute; the simulated
	// clock (and so every table and the timeline) stays deterministic.
	backend := cudnn.ModelOnlyBackend
	if o.Profile != "" {
		backend = cudnn.ModelBackend
	}
	s, err := session.New(session.Config{
		Net: o.Net, Batch: o.Batch, Device: d, Mode: o.Mode, Policy: pol,
		WS: o.WSMiB << 20, Total: o.TotalMiB << 20, BlobBudget: o.BlobMiB << 20,
		Backend: backend, CachePath: o.DB, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}

	// The traced iterations run first, straight after set-up and one
	// warm-up, so the timeline's clock does not depend on -iters' timed
	// pass below.
	if o.Timeline != "" || o.Trace != "" {
		t, err := s.Trace(o.Iters)
		if err != nil {
			return nil, err
		}
		if o.Timeline != "" {
			if err := writeFile(o.Timeline, t.WriteJSON); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "wrote causal timeline (%d scopes, %d events) to %s\n", len(t.Scopes), len(t.Events), o.Timeline)
		}
		if o.Trace != "" {
			if err := writeFile(o.Trace, t.WriteChrome); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", o.Trace)
		}
	}

	rep, err := s.Net.Time(o.Iters)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s on %s, N=%d, mode=%s policy=%s (%d iterations)\n\n",
		o.Net, d.Name, o.Batch, o.Mode, pol, o.Iters)
	rep.Print(w)
	fmt.Fprintf(w, "\nconvolutions: %v (%.1f%% of iteration)\n",
		rep.SumMatching(zoo.IsConvLayer),
		100*float64(rep.SumMatching(zoo.IsConvLayer))/float64(rep.Total()))
	if uc := s.UC; uc != nil {
		fmt.Fprintf(w, "µ-cuDNN optimization time: %v\n", uc.OptimizationTime())
		if st := uc.WDStats(); st != nil {
			fmt.Fprintf(w, "WD: %d ILP vars, %d nodes, solved in %v, %s MiB assigned\n",
				st.ILPVars, st.ILPNodes, st.SolveTime, fmtMiB(st.TotalWorkspace))
		}
	}
	if ooc := s.Ctx.OOC; ooc != nil {
		r := ooc.Report()
		fmt.Fprintf(w, "OOC: budget %s MiB, chunk %d (%d windows), peak %s MiB, floor=%v, degraded=%d, fetch/spill/recompute %s/%s/%s MiB\n",
			fmtMiB(s.OOCPlan.Budget), r.Chunk, r.Windows, fmtMiB(s.OOCPlan.PeakBytes), r.Floor, r.Degraded,
			fmtMiB(r.FetchBytes), fmtMiB(r.SpillBytes), fmtMiB(r.RecomputeBytes))
	}
	return s.HandleReports(), nil
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fmtMiB(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
