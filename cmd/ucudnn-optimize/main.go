// Command ucudnn-optimize runs the µ-cuDNN optimizers offline: it
// benchmarks a convolution kernel's algorithms (populating the file
// benchmark database for later runs, §III-D), prints WR plans across
// workspace limits, and dumps the desirable-configuration Pareto front.
// With -net it instead optimizes a whole zoo network under Workspace
// Division, reporting the §IV-B optimization-cost numbers (DP states,
// ILP variables and branch-and-bound nodes, solve wall-clock).
//
// Usage:
//
//	ucudnn-optimize -shape 256x64x27x27 -filter 192x5x5 -pad 2 -ws 64
//	ucudnn-optimize -shape 32x128x28x28 -filter 128x3x3 -pad 1 -op backward-filter -policy all -db bench.db
//	ucudnn-optimize -net alexnet -batch 256 -total 128 -metrics -
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/session"
	"ucudnn/internal/tensor"
	"ucudnn/internal/zoo"
)

// runOpts mirrors the command-line flags.
type runOpts struct {
	Shape     string
	Filter    string
	Pad       int
	Stride    int
	Op        string
	Device    string
	Policy    string
	WSMiB     int64
	DB        string
	ShowFront bool
	Net       string
	Batch     int
	TotalMiB  int64
	BlobMiB   int64

	session.ObsFlags
}

func main() {
	var o runOpts
	flag.StringVar(&o.Shape, "shape", "256x64x27x27", "input NxCxHxW")
	flag.StringVar(&o.Filter, "filter", "192x5x5", "filter KxRxS")
	flag.IntVar(&o.Pad, "pad", 2, "padding")
	flag.IntVar(&o.Stride, "stride", 1, "stride")
	flag.StringVar(&o.Op, "op", "forward", "operation: forward, backward-data, backward-filter")
	flag.StringVar(&o.Device, "device", "p100", "device: k80, p100, v100")
	flag.StringVar(&o.Policy, "policy", "powerOfTwo", "batch-size policy")
	flag.Int64Var(&o.WSMiB, "ws", 64, "workspace limit (MiB)")
	flag.StringVar(&o.DB, "db", "", "benchmark database file to populate")
	flag.BoolVar(&o.ShowFront, "front", true, "print the desirable-configuration Pareto front")
	flag.StringVar(&o.Net, "net", "", "optimize a whole network under WD instead of one kernel: "+strings.Join(zoo.Names(), ", "))
	flag.IntVar(&o.Batch, "batch", 256, "mini-batch size for -net mode")
	flag.Int64Var(&o.TotalMiB, "total", 0, "WD total workspace (MiB; required for -net)")
	flag.Int64Var(&o.BlobMiB, "blob-budget", 0,
		"out-of-core blob budget (MiB) for -net mode: reserve the planned activation working set out of the WD pool (0 = off)")
	o.ObsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func parseDims(s string, n int) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d dimensions in %q", n, s)
	}
	out := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func run(o runOpts) error {
	return o.ObsFlags.Run(func(reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
		if o.Net != "" {
			return runNet(o, reg, fr)
		}
		return nil, runKernel(o, reg, fr)
	})
}

// runKernel is the original single-kernel mode: benchmark, WR sweep,
// Pareto front.
func runKernel(o runOpts, reg *obs.Registry, fr *faults.Registry) error {
	in, err := parseDims(o.Shape, 4)
	if err != nil {
		return err
	}
	fl, err := parseDims(o.Filter, 3)
	if err != nil {
		return err
	}
	var op conv.Op
	switch o.Op {
	case "forward":
		op = conv.Forward
	case "backward-data":
		op = conv.BackwardData
	case "backward-filter":
		op = conv.BackwardFilter
	default:
		return fmt.Errorf("unknown op %q", o.Op)
	}
	d, err := device.ByName(o.Device)
	if err != nil {
		return err
	}
	pol, err := core.ParsePolicy(o.Policy)
	if err != nil {
		return err
	}
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: in[0], C: in[1], H: in[2], W: in[3]},
		Filt:   tensor.Filter{K: fl[0], C: in[1], R: fl[1], S: fl[2]},
		Params: tensor.ConvParams{PadH: o.Pad, PadW: o.Pad, StrideH: o.Stride, StrideW: o.Stride},
	}
	if !cs.Valid() {
		return fmt.Errorf("invalid convolution %v", cs)
	}
	h := cudnn.NewHandle(d, cudnn.ModelOnlyBackend)
	h.SetFaults(fr)
	cache, err := core.NewCache(o.DB, fr)
	if err != nil {
		return err
	}
	defer cache.Close()
	b := core.NewBencher(h, cache)
	b.SetMetrics(reg)
	k := core.Kernel{Op: op, Shape: cs}

	fmt.Printf("kernel: %v on %s\n\n", k, d.Name)
	fmt.Println("per-algorithm benchmark (undivided):")
	for _, p := range b.Perfs(k) {
		fmt.Printf("  %-22s %10v  ws %8.1f MiB\n", p.Algo, p.Time, float64(p.Memory)/(1<<20))
	}

	fmt.Printf("\nWR plans (%s policy):\n", pol)
	for _, lim := range []int64{8, o.WSMiB, 512} {
		plan, err := core.OptimizeWR(b, k, lim<<20, pol)
		if err != nil {
			fmt.Printf("  %4d MiB: %v\n", lim, err)
			continue
		}
		fmt.Printf("  %4d MiB: %10v  ws %8.1f MiB  %v\n",
			lim, plan.Time, float64(plan.Workspace)/(1<<20), plan.Config)
	}

	if o.ShowFront {
		front, err := core.DesirableSet(b, k, o.WSMiB<<20, pol)
		if err != nil {
			return err
		}
		fmt.Printf("\ndesirable configurations at %d MiB (%d points):\n", o.WSMiB, len(front))
		for _, sc := range front {
			fmt.Printf("  %10v  ws %8.1f MiB  %v\n", sc.Time, float64(sc.Workspace)/(1<<20), sc.Config)
		}
	}
	if o.DB != "" {
		fmt.Printf("\nbenchmark database %s now holds %d entries\n", o.DB, cache.Len())
	}
	return nil
}

// runNet optimizes all convolution kernels of a zoo network jointly under
// the WD total-workspace budget, printing the paper's §IV-B cost metrics.
func runNet(o runOpts, reg *obs.Registry, fr *faults.Registry) ([]core.HandleReport, error) {
	d, err := device.ByName(o.Device)
	if err != nil {
		return nil, err
	}
	pol, err := core.ParsePolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	// With a blob budget the planned working set is reserved out of the
	// WD pool, making activations and workspace one joint budget.
	s, err := session.New(session.Config{
		Net: o.Net, Batch: o.Batch, Device: d, Mode: "wd", Policy: pol,
		WS: core.DefaultWorkspaceLimit, Total: o.TotalMiB << 20, BlobBudget: o.BlobMiB << 20,
		Backend: cudnn.ModelOnlyBackend, CachePath: o.DB, Metrics: reg, Faults: fr,
	})
	if err != nil {
		return nil, err
	}
	uc := s.UC
	// Setup registers every convolution kernel through the virtual-algorithm
	// Get* calls; finalization then runs the desirable-set DPs and the ILP.
	if err := s.Net.Setup(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := uc.FinalizeRegistration(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	st := uc.WDStats()
	if st == nil {
		return nil, fmt.Errorf("WD produced no result for %q", o.Net)
	}
	fmt.Printf("%s on %s, N=%d, WD total %d MiB, %s policy\n\n", o.Net, d.Name, o.Batch, o.TotalMiB, pol)
	fmt.Printf("optimization wall-clock:  %v\n", wall)
	fmt.Printf("ILP variables:            %d\n", st.ILPVars)
	fmt.Printf("branch-and-bound nodes:   %d\n", st.ILPNodes)
	fmt.Printf("LP relaxation steps:      %d\n", st.SimplexIters)
	fmt.Printf("ILP solve time:           %v\n", st.SolveTime)
	fmt.Printf("assigned workspace:       %.1f MiB\n", float64(st.TotalWorkspace)/(1<<20))
	fmt.Printf("predicted iteration conv: %v\n", st.TotalTime)
	if st.BlobReserve > 0 {
		fmt.Printf("joint pool:               %.1f MiB total, %.1f MiB reserved for blobs, %.1f MiB workspace-effective\n",
			float64(o.TotalMiB<<20+st.BlobReserve)/(1<<20), float64(st.BlobReserve)/(1<<20), float64(st.EffectiveBudget)/(1<<20))
	}
	if p := s.OOCPlan; p != nil {
		fmt.Printf("OOC plan:                 chunk %d (%d windows), peak %.1f MiB, floor=%v\n",
			p.Chunk, p.Windows, float64(p.PeakBytes)/(1<<20), p.Floor)
	}

	plans := uc.Plans()
	fmt.Printf("\nplans (%d unique kernels):\n", len(plans))
	for _, p := range plans {
		fmt.Printf("  %v\n", p)
	}
	return s.HandleReports(), nil
}
