package bench

import (
	"fmt"
	"sort"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
)

// Fig13 reproduces Figure 13: WR versus WD at equal *total* workspace for
// AlexNet (N=256) and ResNet-50 (N=32) on P100. Adjoined bars share the
// total budget: a per-kernel WR limit of L MiB corresponds to a WD budget
// of L x (number of kernels). The paper reports WD(all)@120MiB beating
// WR(undivided)@8MiB-per-kernel by 1.24x on AlexNet, and WD beating even
// the 8x-larger-memory WR baseline.
func Fig13(cfg Config) error {
	cfg = cfg.withDefaults()
	nets := []struct {
		name  string
		batch int
	}{
		{"alexnet", 256},
		{"resnet50", 32},
	}
	for _, n := range nets {
		batch := n.batch
		if cfg.Batch > 0 {
			batch = cfg.Batch
		}
		// Count kernels from a WR probe run.
		_, probe, err := netRun(cfg, n.name, "wr", core.PolicyUndivided, 512*MiB, batch)
		if err != nil {
			return err
		}
		kernels := int64(len(probe.UC.Plans()))

		t := newTable(cfg, fmt.Sprintf("Fig 13: %s (N=%d, %d kernels): WR vs WD at equal total workspace",
			n.name, batch, kernels),
			"mode", "policy", "per_kernel_MiB", "total_MiB", "total_ms", "conv_ms", "used_ws_MiB")
		for _, perKernel := range []int64{8, 64} {
			total := perKernel * kernels
			for _, pol := range core.Policies {
				rep, run, err := netRun(cfg, n.name, "wr", pol, perKernel*MiB, batch)
				if err != nil {
					return err
				}
				var used int64
				for _, p := range run.UC.Plans() {
					used += p.Workspace
				}
				t.row("WR", pol.String(), fmt.Sprintf("%d", perKernel), fmt.Sprintf("%d", total),
					ms(rep.Total()), ms(convOnly(rep)), mib(used))
			}
			for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
				rep, run, err := netRun(cfg, n.name, "wd", pol, total*MiB, batch)
				if err != nil {
					return err
				}
				used := int64(0)
				if s := run.UC.WDStats(); s != nil {
					used = s.TotalWorkspace
				}
				t.row("WD", pol.String(), "-", fmt.Sprintf("%d", total),
					ms(rep.Total()), ms(convOnly(rep)), mib(used))
			}
		}
		t.flush()
	}
	return nil
}

// Fig14 reproduces Figure 14: the workspace division WD assigns across
// AlexNet's kernels with a 120 MiB total budget (N=256, WR comparison at
// 8 MiB per kernel). The paper observes 93.7% of the budget going to
// conv2 and conv3.
func Fig14(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	_, run, err := netRun(cfg, "alexnet", "wd", core.PolicyAll, 120*MiB, batch)
	if err != nil {
		return err
	}
	stats := run.UC.WDStats()
	if stats == nil {
		return fmt.Errorf("bench: WD did not run")
	}
	// Label kernels by layer using the known AlexNet shapes.
	names := map[string]string{}
	for _, l := range alexNetFwdShapes(batch) {
		cs := l.Shape
		cs.Params = cs.Params.Normalized()
		names[cs.String()] = l.Name
	}
	opTag := map[conv.Op]string{conv.Forward: "F", conv.BackwardData: "BD", conv.BackwardFilter: "BF"}

	type row struct {
		layer, op string
		ws        int64
		cfgStr    string
	}
	var rows []row
	var total, conv23 int64
	seen := map[string]bool{}
	for _, p := range stats.Plans {
		key := p.Kernel.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		layer := names[p.Kernel.Shape.String()]
		if layer == "" {
			layer = p.Kernel.Shape.String()
		}
		rows = append(rows, row{layer: layer, op: opTag[p.Kernel.Op], ws: p.Workspace, cfgStr: p.Config.String()})
		total += p.Workspace
		if layer == "conv2" || layer == "conv3" {
			conv23 += p.Workspace
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].layer != rows[j].layer {
			return rows[i].layer < rows[j].layer
		}
		return rows[i].op < rows[j].op
	})
	t := newTable(cfg, fmt.Sprintf("Fig 14: WD workspace assignment, AlexNet N=%d, 120 MiB total (%s)",
		batch, cfg.Device.Name),
		"layer", "kernel", "ws_MiB", "configuration")
	for _, r := range rows {
		t.row(r.layer, r.op, mib(r.ws), r.cfgStr)
	}
	t.flush()
	share := 0.0
	if total > 0 {
		share = 100 * float64(conv23) / float64(total)
	}
	fmt.Fprintf(cfg.Out, "total assigned: %s MiB; conv2+conv3 share: %.1f%% (paper: 93.7%%)\n",
		mib(total), share)
	return nil
}
