package bench

import (
	"fmt"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/zoo"
)

// Table1 prints the simulated evaluation environment (the reproduction of
// the paper's Table I; software rows are replaced by this repository's
// substitutions, which DESIGN.md documents).
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg, "Table I: simulated device specifications",
		"device", "peak_SP_TFlops", "mem_GiB", "bandwidth_GBs", "launch_overhead_us", "SMs")
	for _, d := range device.Devices {
		t.row(d.Name,
			fmt.Sprintf("%.2f", d.PeakFlops/1e12),
			fmt.Sprintf("%d", d.MemBytes>>30),
			fmt.Sprintf("%.0f", d.MemBW/1e9),
			fmt.Sprintf("%.0f", float64(d.LaunchOverhead.Microseconds())),
			fmt.Sprintf("%d", d.SMs))
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "software: cuDNN -> internal/cudnn; GLPK -> internal/ilp; Caffe/TensorFlow -> internal/dnn")
	return nil
}

// OptTime reproduces the §IV-B optimization-cost observations: the time
// to optimize (benchmark + DP) under each policy for AlexNet's kernels,
// and the WD ILP statistics for ResNet-50 (the paper reports 562 binary
// variables solved in 5.46 ms by GLPK) and for a budget-bound DenseNet-40.
func OptTime(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	t := newTable(cfg, fmt.Sprintf("Optimization cost: AlexNet WR (%s, N=%d, 64 MiB)", cfg.Device.Name, batch),
		"policy", "optimization_time")
	for _, pol := range core.Policies {
		start := time.Now()
		b := core.NewBencher(newModelHandle(cfg), nil)
		for _, l := range alexNetFwdShapes(batch) {
			for _, op := range conv.Ops {
				if _, err := core.OptimizeWR(b, core.Kernel{Op: op, Shape: l.Shape}, 64*MiB, pol); err != nil {
					return err
				}
			}
		}
		t.row(pol.String(), time.Since(start).String())
	}
	t.flush()

	// WD ILP statistics: ResNet-50, whose root relaxation is already
	// integral, and the DenseNet-40 instance whose budget binds.
	_, run, err := netRun(cfg, "resnet50", "wd", core.PolicyPowerOfTwo, 159*16*MiB, 32)
	if err != nil {
		return err
	}
	dense, err := DenseNetPlan(cfg.Device)
	if err != nil {
		return err
	}
	cfg.noteHandle(dense)
	t2 := newTable(cfg, "WD ILP statistics",
		"instance", "binary_vars", "bnb_nodes", "lp_steps", "solve_time")
	for _, r := range []struct {
		name string
		s    *core.WDResult
	}{
		{"ResNet-50 N=32 @ 2544 MiB", run.UC.WDStats()},
		{"DenseNet-40 (k=12) N=8 @ 32 MiB", dense.WDStats()},
	} {
		t2.row(r.name, fmt.Sprintf("%d", r.s.ILPVars), fmt.Sprintf("%d", r.s.ILPNodes),
			fmt.Sprintf("%d", r.s.SimplexIters), r.s.SolveTime.String())
	}
	t2.flush()
	return nil
}

// DenseNetPlan plans the optimizer's hard instance, the one the end-to-end
// benchmark's densenet_plan workload cycles: DenseNet-40 (k=12) at batch
// 8 under a 32 MiB WD budget with 8 MiB asked per layer, model-only. The
// budget binds, so unlike ResNet-50's the ILP needs a real search. It
// returns the finalized handle (plans and WDStats are ready).
func DenseNetPlan(dev device.Spec) (*core.Handle, error) {
	inner := cudnn.NewHandle(dev, cudnn.ModelOnlyBackend)
	inner.Mem().Cap = 0
	uc, err := core.New(inner, core.WithPolicy(core.PolicyPowerOfTwo), core.WithWD(32*MiB))
	if err != nil {
		return nil, err
	}
	ctx := dnn.NewContext(uc, inner, 8*MiB)
	ctx.SkipCompute = true
	net, _ := zoo.DenseNet40(ctx, 8, 12, 10)
	if err := net.Setup(); err != nil {
		return nil, err
	}
	return uc, uc.FinalizeRegistration()
}
