package core

import "sync/atomic"

// This file is the per-handle plan table, the paper's §IV-B table as a
// value: per-kernel chosen algorithm, micro-batch division, and
// workspace share against the budget. The profile report
// (BuildProfileReport) joins its kernel rows against it.

// handleSeq numbers handles in creation order (Handle.id).
var handleSeq atomic.Int64

// PlanReport is one kernel's row of the plan table.
type PlanReport struct {
	// Kernel is the kernel identity, "Op[shape]".
	Kernel string `json:"kernel"`
	// Config is the micro-batched configuration, "<algo@n, ...>".
	Config string `json:"config"`
	// Divisions is the number of micro-batches in the configuration.
	Divisions int `json:"divisions"`
	// PredictedNS is the optimizer's predicted time for the whole
	// configuration (0 for plans adopted by the degradation ladder,
	// which does not re-benchmark).
	PredictedNS int64 `json:"predicted_ns"`
	// WorkspaceBytes is the configuration's workspace requirement.
	WorkspaceBytes int64 `json:"workspace_bytes"`
	// LimitBytes is the budget the kernel was optimized under: the
	// per-kernel limit in WR mode, the network-wide budget in WD mode.
	LimitBytes int64 `json:"limit_bytes"`
	// Share is WorkspaceBytes / LimitBytes (0 when the limit is 0).
	Share float64 `json:"share"`
}

// HandleReport is a point-in-time snapshot of one handle's
// configuration and decided plans.
type HandleReport struct {
	ID                  int64        `json:"id"`
	Mode                string       `json:"mode"`
	Policy              string       `json:"policy"`
	Device              string       `json:"device"`
	WorkspaceLimit      int64        `json:"workspace_limit_bytes"`
	TotalWorkspaceLimit int64        `json:"total_workspace_limit_bytes,omitempty"`
	OptTimeNS           int64        `json:"opt_time_ns"`
	DegradedPlans       int          `json:"degraded_plans"`
	ArenaBytes          int64        `json:"arena_bytes"`
	Plans               []PlanReport `json:"plans"`
}

// Report snapshots the handle's plan table, sorted by kernel.
func (h *Handle) Report() HandleReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := HandleReport{
		ID:                  h.id,
		Mode:                h.opts.Mode.String(),
		Policy:              h.opts.Policy.String(),
		Device:              h.inner.Device().Name,
		WorkspaceLimit:      h.opts.WorkspaceLimit,
		TotalWorkspaceLimit: h.opts.TotalWorkspaceLimit,
		OptTimeNS:           h.optTime.Nanoseconds(),
		DegradedPlans:       h.degraded,
		ArenaBytes:          int64(len(h.wsArena)) * 4,
		Plans:               make([]PlanReport, 0, len(h.plans)),
	}
	for _, key := range h.planKeysLocked() {
		p := h.plans[key]
		limit := h.opts.WorkspaceLimit
		if h.opts.Mode == WD {
			limit = h.opts.TotalWorkspaceLimit
		}
		if l, ok := h.limits[key]; ok {
			limit = l
		}
		share := 0.0
		if limit > 0 {
			share = float64(p.Workspace) / float64(limit)
		}
		r.Plans = append(r.Plans, PlanReport{
			Kernel:         p.Kernel.String(),
			Config:         p.Config.String(),
			Divisions:      len(p.Config),
			PredictedNS:    p.Time.Nanoseconds(),
			WorkspaceBytes: p.Workspace,
			LimitBytes:     limit,
			Share:          share,
		})
	}
	return r
}
