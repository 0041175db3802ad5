// Command ucudnn-bench regenerates the paper's tables and figures on the
// simulated device models.
//
// Usage:
//
//	ucudnn-bench -exp fig10 [-device p100] [-batch 256] [-iters 3] [-csv out.csv]
//	ucudnn-bench -exp all -metrics metrics.prom
//	ucudnn-bench -exp fig10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: fig1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table1
// opttime summary ablation concurrency.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ucudnn/internal/bench"
	"ucudnn/internal/core"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/session"
)

// opts mirrors the command's own flags.
type opts struct {
	exp, dev                        string
	batch, iters                    int
	csvPath, cpuProfile, memProfile string
}

func main() {
	var o opts
	flag.StringVar(&o.exp, "exp", "summary", "experiment name or 'all' ("+strings.Join(bench.Names(), ", ")+")")
	flag.StringVar(&o.dev, "device", "p100", "device: k80, p100, v100")
	flag.IntVar(&o.batch, "batch", 0, "override mini-batch size (0 = experiment default)")
	flag.IntVar(&o.iters, "iters", 3, "timed iterations")
	flag.StringVar(&o.csvPath, "csv", "", "also write CSV rows to this file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run for go tool pprof")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit for go tool pprof")
	var of session.ObsFlags
	of.Register(flag.CommandLine)
	flag.Parse()

	err := of.Run(func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
		var handles []core.HandleReport
		err := run(o, reg, fr, &handles)
		return handles, err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the selected experiments; handles collects the plan
// table of every µ-cuDNN handle they build.
func run(o opts, reg *obs.Registry, fr *faults.Registry, handles *[]core.HandleReport) error {
	d, err := device.ByName(o.dev)
	if err != nil {
		return err
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := bench.Config{Device: d, Batch: o.batch, Iters: o.iters, Out: os.Stdout, Metrics: reg, Faults: fr, Handles: handles}
	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.CSV = f
	}
	names := []string{o.exp}
	if o.exp == "all" {
		names = bench.Names()
	}
	for _, name := range names {
		if err := bench.Run(name, cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
