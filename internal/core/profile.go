package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"text/tabwriter"

	"ucudnn/internal/prof"
)

// This file is the cost-attribution report: the profiler's per-phase
// rows joined with the plan tables of the run's handles, so one document
// answers layer → kernel → algorithm/division → phase, with workspace
// grants and worker utilization alongside. Its JSON rows are shaped as
// the feature/label pairs a learned cost model can train on: the plan
// config and shapes are the features, the per-phase times the labels.

// ProfileSchema identifies the profile report's JSON schema.
const ProfileSchema = "ucudnn-profile-report/v1"

// ProfileWorkers is one kernel's worker-utilization accounting.
type ProfileWorkers struct {
	// Launches counts top-level parallel launches (busy/idle accounted);
	// NestedLaunches counts inner launches (imbalance only).
	Launches       int64 `json:"launches"`
	NestedLaunches int64 `json:"nested_launches,omitempty"`
	BusyNS         int64 `json:"busy_ns"`
	IdleNS         int64 `json:"idle_ns"`
	// MeanBusyRatio is busy/(busy+idle) over top-level launches;
	// Max/MeanImbalance are the max-over-mean per-worker busy ratios
	// (1.0 = perfectly balanced stripes) over every launch.
	MeanBusyRatio float64 `json:"mean_busy_ratio"`
	MaxImbalance  float64 `json:"max_imbalance"`
	MeanImbalance float64 `json:"mean_imbalance"`
}

// ProfileKernel is one (layer, kernel) row of the attribution report.
type ProfileKernel struct {
	Layer  string `json:"layer"`
	Kernel string `json:"kernel"`
	// Config/Divisions/WorkspaceBytes are joined from the plan table
	// (empty for rows without a matching plan, e.g. unattributed work).
	Config         string `json:"config,omitempty"`
	Divisions      int    `json:"divisions,omitempty"`
	WorkspaceBytes int64  `json:"workspace_bytes,omitempty"`
	// WSHighWaterBytes is the largest workspace grant the kernel's
	// executions actually received (<= WorkspaceBytes unless a fault
	// shrank the arena).
	WSHighWaterBytes int64 `json:"ws_high_water_bytes"`
	Executions       int64 `json:"executions"`
	TotalNS          int64 `json:"total_ns"`
	AttributedNS     int64 `json:"attributed_ns"`
	MeasuredNS       int64 `json:"measured_ns"`
	// Coverage is AttributedNS/MeasuredNS — the fraction of measured
	// kernel time explained by named phases.
	Coverage float64          `json:"coverage"`
	Phases   []prof.PhaseSnap `json:"phases"`
	Workers  ProfileWorkers   `json:"workers"`
}

// ProfileReport is the full cost-attribution document.
type ProfileReport struct {
	Schema string `json:"schema"`
	// Handles is the plan table (core.Handle.Report) of every handle
	// the run built, in creation order; the kernel rows were joined
	// against it.
	Handles []HandleReport `json:"handles"`
	// Kernels is the attribution table, sorted by (layer, kernel).
	Kernels []ProfileKernel `json:"kernels"`
	// TopPhases aggregates phase time across every kernel, heaviest
	// first.
	TopPhases []prof.PhaseTotal `json:"top_phases"`
}

// findPlan resolves kernel's plan row, preferring the newest handle.
func findPlan(handles []HandleReport, kernel string) (PlanReport, bool) {
	for i := len(handles) - 1; i >= 0; i-- {
		for _, p := range handles[i].Plans {
			if p.Kernel == kernel {
				return p, true
			}
		}
	}
	return PlanReport{}, false
}

// BuildProfileReport joins the profiler's attribution rows with
// handles, the plan tables (Handle.Report) of the handles the profiled
// run built, in creation order. The owner of the run supplies them:
// the profiler is process-wide and knows kernels, not handles.
func BuildProfileReport(handles []HandleReport) ProfileReport {
	rep := ProfileReport{Schema: ProfileSchema, Handles: append([]HandleReport{}, handles...)}
	rows := prof.Snapshot()
	rep.Kernels = make([]ProfileKernel, 0, len(rows))
	for _, r := range rows {
		pk := ProfileKernel{
			Layer:            r.Layer,
			Kernel:           r.Kernel,
			WSHighWaterBytes: r.WSHighWaterBytes,
			Executions:       r.Executions,
			TotalNS:          r.TotalNS,
			AttributedNS:     r.AttributedNS,
			MeasuredNS:       r.MeasuredNS,
			Coverage:         r.Coverage,
			Phases:           r.Phases,
			Workers: ProfileWorkers{
				Launches:       r.Launches,
				NestedLaunches: r.NestedLaunches,
				BusyNS:         r.BusyNS,
				IdleNS:         r.IdleNS,
				MeanBusyRatio:  r.MeanBusyRatio,
				MaxImbalance:   r.MaxImbalance,
				MeanImbalance:  r.MeanImbalance,
			},
		}
		if p, ok := findPlan(rep.Handles, r.Kernel); ok {
			pk.Config = p.Config
			pk.Divisions = p.Divisions
			pk.WorkspaceBytes = p.WorkspaceBytes
		}
		rep.Kernels = append(rep.Kernels, pk)
	}
	rep.TopPhases = prof.PhaseTotals()
	return rep
}

// WriteTable renders the report as the human-readable attribution
// table: kernels sorted heaviest-first with their top phase, then the
// aggregate top-phases list.
func (r ProfileReport) WriteTable(w io.Writer) error {
	ks := make([]ProfileKernel, len(r.Kernels))
	copy(ks, r.Kernels)
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].MeasuredNS > ks[j].MeasuredNS })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tkernel\tconfig\texec\tmeasured_ms\tcoverage\ttop_phase\timbalance\tws_hw_bytes")
	for _, k := range ks {
		top := ""
		if len(k.Phases) > 0 {
			top = fmt.Sprintf("%s %.1f%%", k.Phases[0].Phase,
				100*float64(k.Phases[0].NS)/math.Max(1, float64(k.MeasuredNS)))
		}
		imb := ""
		if k.Workers.Launches+k.Workers.NestedLaunches > 0 {
			imb = fmt.Sprintf("max=%.2f mean=%.2f", k.Workers.MaxImbalance, k.Workers.MeanImbalance)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.3f\t%.1f%%\t%s\t%s\t%d\n",
			k.Layer, k.Kernel, k.Config, k.Executions,
			float64(k.MeasuredNS)/1e6, 100*k.Coverage, top, imb, k.WSHighWaterBytes)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntop phases:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, p := range r.TopPhases {
		fmt.Fprintf(tw, "  %s\t%.3fms\tn=%d\n", p.Phase, float64(p.NS)/1e6, p.Count)
	}
	return tw.Flush()
}

// WriteProfileFile exports the current profile joined against handles
// (see BuildProfileReport): "-" writes the human-readable table to
// stdout, any other path gets the schema'd JSON document. This is the
// shared behaviour of the CLIs' -profile flags.
func WriteProfileFile(path string, handles []HandleReport) error {
	if path == "" {
		return nil
	}
	rep := BuildProfileReport(handles)
	if path == "-" {
		return rep.WriteTable(os.Stdout)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding profile: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing profile: %w", err)
	}
	return nil
}

// profilePhaseRe matches the profiler's phase-name scheme (the
// validator re-checks it so a hand-edited report cannot smuggle in
// out-of-scheme names).
var profilePhaseRe = regexp.MustCompile(`^ucudnn_ph(_[a-z0-9]+)+$`)

// ValidateProfile checks that data is a structurally valid
// ucudnn-profile-report/v1 document.
func ValidateProfile(data []byte) error {
	var rep ProfileReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("profile: not valid JSON: %w", err)
	}
	if rep.Schema != ProfileSchema {
		return fmt.Errorf("profile: schema %q, want %q", rep.Schema, ProfileSchema)
	}
	if rep.Handles == nil {
		return fmt.Errorf("profile: missing handles array")
	}
	if rep.Kernels == nil {
		return fmt.Errorf("profile: missing kernels array")
	}
	for i, k := range rep.Kernels {
		if k.Kernel == "" {
			return fmt.Errorf("profile: kernels[%d]: empty kernel", i)
		}
		if k.MeasuredNS < 0 || k.AttributedNS < 0 || k.TotalNS < 0 {
			return fmt.Errorf("profile: kernels[%d] %s: negative time", i, k.Kernel)
		}
		if math.IsNaN(k.Coverage) || math.IsInf(k.Coverage, 0) || k.Coverage < 0 {
			return fmt.Errorf("profile: kernels[%d] %s: bad coverage %v", i, k.Kernel, k.Coverage)
		}
		var sum int64
		for _, p := range k.Phases {
			if !profilePhaseRe.MatchString(p.Phase) {
				return fmt.Errorf("profile: kernels[%d] %s: phase %q violates the ucudnn_ph_* scheme", i, k.Kernel, p.Phase)
			}
			if p.NS < 0 || p.Count < 0 {
				return fmt.Errorf("profile: kernels[%d] %s: phase %s negative", i, k.Kernel, p.Phase)
			}
			sum += p.NS
		}
		if sum != k.AttributedNS {
			return fmt.Errorf("profile: kernels[%d] %s: phases sum to %d, attributed_ns %d", i, k.Kernel, sum, k.AttributedNS)
		}
		if w := k.Workers; w.Launches < 0 || w.BusyNS < 0 || w.IdleNS < 0 ||
			w.MaxImbalance < 0 || w.MeanImbalance < 0 {
			return fmt.Errorf("profile: kernels[%d] %s: negative worker accounting", i, k.Kernel)
		}
	}
	for i, p := range rep.TopPhases {
		if !profilePhaseRe.MatchString(p.Phase) {
			return fmt.Errorf("profile: top_phases[%d]: phase %q violates the ucudnn_ph_* scheme", i, p.Phase)
		}
	}
	return nil
}
