package bench

import (
	"fmt"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
)

// Fig8 reproduces Figure 8: the desirable-configuration set (Pareto front
// in the time x workspace plane) of AlexNet conv2's forward kernel with a
// 120 MiB limit and mini-batch 256. The paper's front has tens of points
// (the maximum over AlexNet's kernels was 68).
func Fig8(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	b := core.NewBencher(newModelHandle(cfg), nil)
	k := core.Kernel{Op: conv.Forward, Shape: Conv2(batch)}
	front, err := core.DesirableSet(b, k, 120*MiB, core.PolicyAll)
	if err != nil {
		return err
	}
	t := newTable(cfg, fmt.Sprintf("Fig 8: conv2 desirable configurations (%s, 120 MiB, N=%d) — %d points",
		cfg.Device.Name, batch, len(front)),
		"time_ms", "ws_MiB", "configuration")
	for _, sc := range front {
		t.row(ms(sc.Time), mib(sc.Workspace), sc.Config.String())
	}
	t.flush()
	return nil
}

// Fig9 reproduces Figure 9: conv2 forward under WR with a 64 MiB limit at
// mini-batch 256, for the three batch-size policies. The paper's all
// policy achieves 2.33x over undivided, with powerOfTwo enabling FFT over
// micro-batches.
func Fig9(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	b := core.NewBencher(newModelHandle(cfg), nil)
	k := core.Kernel{Op: conv.Forward, Shape: Conv2(batch)}
	t := newTable(cfg, fmt.Sprintf("Fig 9: conv2 forward, WR @64 MiB (%s, N=%d)", cfg.Device.Name, batch),
		"policy", "time_ms", "ws_MiB", "speedup_vs_undivided", "configuration")
	var undiv float64
	for _, pol := range core.Policies {
		plan, err := core.OptimizeWR(b, k, 64*MiB, pol)
		if err != nil {
			return err
		}
		tms := float64(plan.Time.Microseconds()) / 1000
		if pol == core.PolicyUndivided {
			undiv = tms
		}
		t.row(pol.String(), ms(plan.Time), mib(plan.Workspace),
			fmt.Sprintf("%.2fx", undiv/tms), plan.Config.String())
	}
	t.flush()
	return nil
}
