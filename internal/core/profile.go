package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
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

// ProfileKernel is one (layer, kernel) row of the attribution report:
// the profiler's row joined with its plan.
type ProfileKernel struct {
	prof.RowSnap
	// Config/Divisions/WorkspaceBytes are joined from the plan table
	// (empty for rows without a matching plan, e.g. unattributed work).
	// The row's WSHighWaterBytes is <= WorkspaceBytes unless a fault
	// shrank the arena.
	Config         string `json:"config,omitempty"`
	Divisions      int    `json:"divisions,omitempty"`
	WorkspaceBytes int64  `json:"workspace_bytes,omitempty"`
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
	// TopPhases is the per-phase sum of the kernel rows, heaviest first.
	TopPhases []prof.PhaseSnap `json:"top_phases"`
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
	rep.Kernels = make([]ProfileKernel, len(rows))
	for i, r := range rows {
		k := &rep.Kernels[i]
		k.RowSnap = r
		if p, ok := findPlan(rep.Handles, r.Kernel); ok {
			k.Config, k.Divisions, k.WorkspaceBytes = p.Config, p.Divisions, p.WorkspaceBytes
		}
	}
	rep.TopPhases = topPhases(rep.Kernels)
	return rep
}

// topPhases sums each phase's time and count over the kernel rows,
// heaviest first (ties by name); nil when no row recorded a phase.
func topPhases(kernels []ProfileKernel) []prof.PhaseSnap {
	var out []prof.PhaseSnap
	at := map[string]int{}
	for _, k := range kernels {
		for _, p := range k.Phases {
			i, ok := at[p.Phase]
			if !ok {
				i = len(out)
				at[p.Phase] = i
				out = append(out, prof.PhaseSnap{Phase: p.Phase})
			}
			out[i].NS += p.NS
			out[i].Count += p.Count
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].NS != out[b].NS {
			return out[a].NS > out[b].NS
		}
		return out[a].Phase < out[b].Phase
	})
	return out
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
		if k.Workers.Launches > 0 {
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
			// Re-checked so a hand-edited report cannot smuggle in
			// out-of-scheme names.
			if !prof.ValidPhase(p.Phase) {
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
	want := topPhases(rep.Kernels)
	if len(rep.TopPhases) != len(want) {
		return fmt.Errorf("profile: top_phases lists %d phases, the kernel rows record %d", len(rep.TopPhases), len(want))
	}
	for i, p := range rep.TopPhases {
		if p != want[i] {
			return fmt.Errorf("profile: top_phases[%d] = %+v, the kernel rows sum to %+v", i, p, want[i])
		}
	}
	return nil
}
