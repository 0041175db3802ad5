package bench

import (
	"fmt"

	"ucudnn/internal/core"
	"ucudnn/internal/dnn"
	"ucudnn/internal/zoo"
)

// Concurrency is an extension experiment backing the paper's §III-A
// motivation for Workspace Division: Inception-style branches can run on
// concurrent streams, and WD hands each branch its own right-sized
// workspace segment. The table compares WR (equal per-kernel slices) and
// WD (ILP division) forward makespans of the inception(3a) module on 1,
// 2 and 4 streams at the same total workspace.
func Concurrency(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 128
	}
	const totalMiB = 96

	type run struct {
		name string
		net  *dnn.Net
		rep  *dnn.TimingReport
	}
	var runs []run

	// WR with equal per-kernel slices (17 kernels in the module).
	build := func(name, mode string, limit int64, policy core.Policy) error {
		inner := newModelHandle(cfg)
		inner.Mem().Cap = 0
		var convH dnn.ConvHandle = inner
		var uc *core.Handle
		ctxLimit := limit
		if mode != "cudnn" {
			var opts []core.Option
			opts = append(opts, core.WithPolicy(policy))
			if mode == "wd" {
				opts = append(opts, core.WithWD(limit))
				// WD ignores per-kernel limits; the framework-side value is
				// only what Caffe would pass through.
				ctxLimit = core.DefaultWorkspaceLimit
			} else {
				opts = append(opts, core.WithWorkspaceLimit(limit))
			}
			var err error
			if uc, err = core.New(inner, opts...); err != nil {
				return err
			}
			convH = uc
		}
		ctx := dnn.NewContext(convH, inner, ctxLimit)
		ctx.SkipCompute = true
		net := zoo.InceptionModule(ctx, batch)
		rep, err := net.Time(cfg.Iters)
		if err != nil {
			return err
		}
		cfg.noteHandle(uc)
		runs = append(runs, run{name: name, net: net, rep: rep})
		return nil
	}
	kernels := int64(17) // 6 conv layers x 3 kernels - 1 (no input grad)
	if err := build("WR equal slices", "wr", totalMiB*MiB/kernels, core.PolicyPowerOfTwo); err != nil {
		return err
	}
	if err := build("WD ILP division", "wd", totalMiB*MiB, core.PolicyPowerOfTwo); err != nil {
		return err
	}

	t := newTable(cfg, fmt.Sprintf("Concurrency (extension): inception(3a) forward, N=%d, %d MiB total (%s)",
		batch, totalMiB, cfg.Device.Name),
		"variant", "streams", "fwd_makespan_ms", "speedup_vs_1stream", "critical_path_ms", "fwd+bwd_total_ms")
	for _, r := range runs {
		cp, err := r.net.CriticalPath(r.rep)
		if err != nil {
			return err
		}
		var base float64
		for _, streams := range []int{1, 2, 4} {
			s, err := r.net.ScheduleForward(r.rep, streams)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			msp := s.Makespan.Seconds() * 1000
			if streams == 1 {
				base = msp
			}
			t.row(r.name, fmt.Sprintf("%d", streams), ms(s.Makespan),
				fmt.Sprintf("%.2fx", base/msp), ms(cp), ms(r.rep.Total()))
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "note: WD optimizes the whole iteration (fwd+bwd column); branch concurrency")
	fmt.Fprintln(cfg.Out, "then compresses the forward makespan toward the critical path on both variants.")
	return nil
}
