// Package session is the one place that decides how a zoo network run
// is built, budgeted and observed: the out-of-core probe and plan, the
// cuDNN / WR / WD handle switch with its joint-pool rule, the dnn
// context, and the attach/detach sequence of a causally traced run. The
// CLIs and the experiment harness all stand a network up through New;
// obs.go holds the observability flag block they share.
package session

import (
	"fmt"

	"ucudnn/internal/causal"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/trace"
	"ucudnn/internal/zoo"
)

// Config describes one network run.
type Config struct {
	// Net is a name from zoo.Names().
	Net   string
	Batch int
	// Device is the simulated GPU.
	Device device.Spec
	// Mode is "cudnn" (the plain handle), "wr" or "wd".
	Mode   string
	Policy core.Policy
	// WS is the per-kernel workspace limit in bytes: what the layers ask
	// their handle for, and WR's limit.
	WS int64
	// Total is the WD workspace budget in bytes (mode "wd").
	Total int64
	// BlobBudget, when positive, streams activations out of core under
	// this many bytes; under WD the planned peak joins Total as one pool.
	BlobBudget int64
	// Backend selects the timing backend; ModelOnlyBackend builds a
	// timing-only run (no arithmetic, no buffers).
	Backend cudnn.Backend
	// CachePath passes through to the µ-cuDNN handle; Metrics is the
	// run's one registry, shared by the handle and the out-of-core
	// executor.
	CachePath string
	Metrics   *obs.Registry
	// Faults is the run's fault schedule (nil: none). New attaches it to
	// the run's cuDNN handle only: the out-of-core probe runs outside it,
	// so the schedule's call counts start at the run's first evaluation.
	Faults *faults.Registry
}

// Session is a built network run.
type Session struct {
	Net   *dnn.Net
	Ctx   *dnn.Context
	Inner *cudnn.Handle
	// UC is the µ-cuDNN handle; nil in "cudnn" mode.
	UC *core.Handle
	// OOCPlan is the out-of-core window plan; nil without a blob budget.
	OOCPlan *dnn.OOCPlan
}

// New builds the run cfg describes. Nothing executes: plans are decided
// by the first iteration (or FinalizeRegistration), as in a framework.
func New(cfg Config) (*Session, error) {
	s := &Session{}
	// Out-of-core streaming plans against a probe instance of the network
	// (shapes only, no compute): footprint model in, window plan out.
	var oocModel *dnn.OOCModel
	var blobPeak int64
	if cfg.BlobBudget > 0 {
		probe := newHandle(cfg.Device, cudnn.ModelOnlyBackend)
		probeCtx := dnn.NewContext(probe, probe, cfg.WS)
		probeNet, _, err := zoo.Build(probeCtx, cfg.Net, cfg.Batch)
		if err != nil {
			return nil, err
		}
		if err := probeNet.Setup(); err != nil {
			return nil, fmt.Errorf("probing %s for the blob budget: %w", cfg.Net, err)
		}
		if oocModel, err = dnn.FootprintModel(probeNet); err != nil {
			return nil, err
		}
		plan, err := dnn.PlanOOC(oocModel, cfg.BlobBudget)
		if err != nil {
			return nil, err
		}
		s.OOCPlan = &plan
		blobPeak = plan.PeakBytes
	}

	s.Inner = newHandle(cfg.Device, cfg.Backend)
	s.Inner.SetFaults(cfg.Faults)
	var convH dnn.ConvHandle = s.Inner
	if cfg.Mode != "cudnn" {
		opts := []core.Option{core.WithPolicy(cfg.Policy), core.WithCachePath(cfg.CachePath),
			core.WithMetrics(cfg.Metrics)}
		switch cfg.Mode {
		case "wr":
			opts = append(opts, core.WithWorkspaceLimit(cfg.WS))
		case "wd":
			if cfg.Total <= 0 {
				return nil, fmt.Errorf("mode wd requires a positive total workspace budget (-total)")
			}
			opts = append(opts, core.WDJointPool(cfg.Total, blobPeak))
		default:
			return nil, fmt.Errorf("unknown mode %q", cfg.Mode)
		}
		uc, err := core.New(s.Inner, opts...)
		if err != nil {
			return nil, err
		}
		s.UC, convH = uc, uc
	}

	s.Ctx = dnn.NewContext(convH, s.Inner, cfg.WS)
	if oocModel != nil {
		s.Ctx.OOC = dnn.NewOOCState(oocModel, *s.OOCPlan)
		s.Ctx.OOC.SetMetrics(cfg.Metrics)
	}
	net, loss, err := zoo.Build(s.Ctx, cfg.Net, cfg.Batch)
	if err != nil {
		return nil, err
	}
	if !s.Ctx.SkipCompute && loss != nil {
		// Real compute runs the loss layer too; give it a label per sample.
		loss.Labels = make([]int, cfg.Batch)
		for i := range loss.Labels {
			loss.Labels[i] = i % 10
		}
	}
	s.Net = net
	return s, nil
}

// newHandle builds a cuDNN handle with the device-memory cap lifted:
// these runs measure kernel time, not capacity, so large-batch and
// large-workspace corners still produce a timing row.
func newHandle(d device.Spec, backend cudnn.Backend) *cudnn.Handle {
	h := cudnn.NewHandle(d, backend)
	h.Mem().Cap = 0
	return h
}

// HandleReports returns the plan table of the run's µ-cuDNN handle as
// the list ObsFlags.Run's body hands back for the profile report; empty
// in "cudnn" mode.
func (s *Session) HandleReports() []core.HandleReport {
	if s.UC == nil {
		return nil
	}
	return []core.HandleReport{s.UC.Report()}
}

// Trace runs one warm-up iteration (plans get decided and arenas
// settle, so the traced iterations see steady state), then iters >= 1
// iterations with a fresh trace recorder attached, and returns the
// validated canonical timeline.
func (s *Session) Trace(iters int) (*causal.Timeline, error) {
	if iters < 1 {
		return nil, fmt.Errorf("tracing %d iterations: want at least 1", iters)
	}
	if err := s.Net.RunIteration(); err != nil {
		return nil, err
	}
	// The handle's kernel spans, the degradation ladder's fault spans
	// (the µ-cuDNN handle reads the inner handle's recorder), the conv
	// call scopes and the net's layer and iteration scopes all go to one
	// recorder, which numbers them and keeps the scope log.
	attach := func(rec *trace.Recorder) {
		s.Inner.SetTrace(rec)
		s.Ctx.Trace = rec
	}
	rec := trace.New()
	attach(rec)
	defer attach(nil)
	for i := 0; i < iters; i++ {
		if err := s.Net.RunIteration(); err != nil {
			return nil, err
		}
	}
	t := causal.Build(rec.Events(), rec.Scopes())
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("internal: exported timeline fails validation: %w", err)
	}
	return t, nil
}
