package bench

import (
	"fmt"

	"ucudnn/internal/core"
	"ucudnn/internal/dnn"
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
	// WR with equal per-kernel slices (17 kernels in the module: 6 conv
	// layers x 3 kernels - 1, no input grad) against WD's ILP division of
	// the same total.
	kernels := int64(17)
	for _, v := range []struct {
		name, mode string
		limit      int64
	}{
		{"WR equal slices", "wr", totalMiB * MiB / kernels},
		{"WD ILP division", "wd", totalMiB * MiB},
	} {
		rep, s, err := netRun(cfg, "inception", v.mode, core.PolicyPowerOfTwo, v.limit, batch)
		if err != nil {
			return err
		}
		runs = append(runs, run{name: v.name, net: s.Net, rep: rep})
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
