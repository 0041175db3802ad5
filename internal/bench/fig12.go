package bench

import (
	"fmt"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/dnn"
)

// layerMem is the per-layer memory decomposition of Fig. 12.
type layerMem struct {
	name       string
	params     int64
	activation int64
	workspace  int64
}

func (m layerMem) total() int64 { return m.params + m.activation + m.workspace }

// collectLayerMem builds a network, runs one timing iteration (so that
// µ-cuDNN plans and allocates its workspaces), and reports per-unique-
// convolution-layer memory. For the µ-cuDNN variant, workspace sizes come
// from the optimized plans rather than the (zero) sizes reported through
// the cuDNN interface.
func collectLayerMem(cfg Config, network string, mode string, limit int64, batch int) ([]layerMem, error) {
	cfg.Iters = 1
	_, run, err := netRun(cfg, network, mode, core.PolicyPowerOfTwo, limit, batch)
	if err != nil {
		return nil, err
	}
	uc, net := run.UC, run.Net
	planWS := map[string]int64{}
	if uc != nil {
		for _, p := range uc.Plans() {
			planWS[p.Kernel.String()] = p.Workspace
		}
	}
	var out []layerMem
	seen := map[string]bool{}
	for _, cl := range net.ConvLayers() {
		cs := cl.Shape()
		key := cs.String()
		if seen[key] {
			continue // unique layers only, as in the paper's figure
		}
		seen[key] = true
		m := layerMem{name: cl.Name()}
		m.params = 2 * cs.Filt.Bytes()
		m.activation = cs.In.Bytes() + cs.OutShape().Bytes()
		if uc == nil {
			f, bd, bf := cl.WorkspaceBytes()
			m.workspace = f + bd + bf
		} else {
			for _, k := range layerKernels(cl) {
				m.workspace += planWS[k.String()]
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// layerKernels returns the kernels a conv layer executes.
func layerKernels(cl *dnn.Conv) []core.Kernel {
	cs := cl.Shape()
	// BackwardData may be skipped on the first layer, but including it in
	// the lookup is harmless: unplanned kernels report zero workspace.
	return []core.Kernel{
		{Op: conv.Forward, Shape: cs},
		{Op: conv.BackwardFilter, Shape: cs},
		{Op: conv.BackwardData, Shape: cs},
	}
}

// Fig12 reproduces Figure 12: per-layer memory of AlexNet (N=256) and
// ResNet-18 (N=128) with cuDNN at a 512 MiB per-layer limit versus
// µ-cuDNN at 64 MiB. The paper reports per-layer reductions up to 3.43x
// (AlexNet) and 2.73x (ResNet-18).
func Fig12(cfg Config) error {
	cfg = cfg.withDefaults()
	nets := []struct {
		name  string
		batch int
	}{
		{"alexnet", 256},
		{"resnet18", 128},
	}
	for _, n := range nets {
		batch := n.batch
		if cfg.Batch > 0 {
			batch = cfg.Batch
		}
		base, err := collectLayerMem(cfg, n.name, "cudnn", 512*MiB, batch)
		if err != nil {
			return err
		}
		opt, err := collectLayerMem(cfg, n.name, "wr", 64*MiB, batch)
		if err != nil {
			return err
		}
		t := newTable(cfg, fmt.Sprintf("Fig 12: %s per-layer memory (N=%d): cuDNN@512MiB vs µ-cuDNN@64MiB", n.name, batch),
			"layer", "act_MiB", "param_MiB", "cudnn_ws_MiB", "cudnn_total_MiB", "ucudnn_ws_MiB", "ucudnn_total_MiB", "reduction")
		var worst float64 = 1
		for i := range base {
			if i >= len(opt) {
				break
			}
			red := float64(base[i].total()) / float64(opt[i].total())
			if red > worst {
				worst = red
			}
			t.row(base[i].name, mib(base[i].activation), mib(base[i].params),
				mib(base[i].workspace), mib(base[i].total()),
				mib(opt[i].workspace), mib(opt[i].total()),
				fmt.Sprintf("%.2fx", red))
		}
		t.flush()
		fmt.Fprintf(cfg.Out, "max per-layer reduction: %.2fx\n", worst)
	}
	return nil
}
