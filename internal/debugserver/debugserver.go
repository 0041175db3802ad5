// Package debugserver exposes the live state of a µ-cuDNN process over
// HTTP: the obs metrics registry, the flight-recorder event stream, the
// per-kernel execution plans (the paper's §IV-B table, taken from the
// running handles instead of a finished log), a workspace-occupancy
// timeline, and build information. The CLIs mount it behind the
// -debug-addr flag / UCUDNN_DEBUG_ADDR env var.
//
// Endpoints (all GET, rooted at /debug/ucudnn/):
//
//	metrics    Prometheus text exposition (?format=summary for the table)
//	events     last-N flight events as JSON (?n=, default 256)
//	plan       per-kernel algo/division/workspace table (?format=json)
//	profile    per-phase cost-attribution report (JSON; ?format=table)
//	workspace  arena-occupancy timeline from flight events (JSON)
//	timeline   live causal timeline (?format=chrome|table|analysis)
//	buildinfo  module, Go version and VCS stamp (JSON)
package debugserver

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"text/tabwriter"
	"time"

	"ucudnn/internal/causal"
	"ucudnn/internal/core"
	"ucudnn/internal/flight"
	"ucudnn/internal/obs"
	"ucudnn/internal/trace"
)

// defaultEventCount bounds /events responses unless ?n= asks otherwise.
const defaultEventCount = 256

// Handler returns the debug mux. reg may be nil: /metrics then reports
// that no registry is attached (the flight and plan endpoints still
// work — they read process-global state).
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/ucudnn/{$}", serveIndex)
	mux.HandleFunc("GET /debug/ucudnn/metrics", func(w http.ResponseWriter, r *http.Request) {
		serveMetrics(w, r, reg)
	})
	mux.HandleFunc("GET /debug/ucudnn/events", serveEvents)
	mux.HandleFunc("GET /debug/ucudnn/plan", servePlan)
	mux.HandleFunc("GET /debug/ucudnn/profile", serveProfile)
	mux.HandleFunc("GET /debug/ucudnn/workspace", serveWorkspace)
	mux.HandleFunc("GET /debug/ucudnn/timeline", serveTimeline)
	mux.HandleFunc("GET /debug/ucudnn/buildinfo", serveBuildInfo)
	return mux
}

func serveIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ucudnn debug endpoints:")
	for _, ep := range []string{
		"metrics    Prometheus text exposition (?format=summary)",
		"events     last-N flight events as JSON (?n=256)",
		"plan       per-kernel algo/division/workspace table (?format=json)",
		"profile    per-phase cost-attribution report (JSON, ?format=table)",
		"workspace  arena-occupancy timeline (JSON)",
		"timeline   live causal timeline (?format=chrome|table|analysis)",
		"buildinfo  module, Go version, VCS stamp (JSON)",
	} {
		fmt.Fprintln(w, "  /debug/ucudnn/"+ep)
	}
}

func serveMetrics(w http.ResponseWriter, r *http.Request, reg *obs.Registry) {
	if reg == nil {
		http.Error(w, "no metrics registry attached (run with -metrics or -debug-addr wiring)", http.StatusNotFound)
		return
	}
	flight.SyncMetrics(reg)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var err error
	if r.URL.Query().Get("format") == "summary" {
		err = reg.WriteSummary(w)
	} else {
		err = reg.WritePrometheus(w)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// eventJSON is one flight event on the wire.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	TNS   int64  `json:"t_ns"`
	Event string `json:"event"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
	D     int64  `json:"d"`
	Span  uint64 `json:"span,omitempty"`
	Text  string `json:"text"`
}

func toEventJSON(e flight.Event) eventJSON {
	return eventJSON{Seq: e.Seq, TNS: e.TimeNS, Event: e.Name(),
		A: e.A, B: e.B, C: e.C, D: e.D, Span: e.Span, Text: e.Text()}
}

func serveEvents(w http.ResponseWriter, r *http.Request) {
	n := defaultEventCount
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "n must be a non-negative integer (0 = all retained)", http.StatusBadRequest)
			return
		}
		n = v
	}
	evs := flight.Events(n)
	resp := struct {
		Total    uint64      `json:"total_recorded"`
		Capacity int         `json:"ring_capacity"`
		Dropped  uint64      `json:"dropped_total"`
		Events   []eventJSON `json:"events"`
	}{Total: flight.Active().Total(), Events: make([]eventJSON, 0, len(evs))}
	if rec := flight.Active(); rec != nil {
		resp.Capacity = rec.Capacity()
		resp.Dropped = rec.Dropped()
	}
	for _, e := range evs {
		resp.Events = append(resp.Events, toEventJSON(e))
	}
	writeJSON(w, resp)
}

func servePlan(w http.ResponseWriter, r *http.Request) {
	reports := make([]core.HandleReport, 0, 4)
	for _, h := range core.Handles() {
		reports = append(reports, h.Report())
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, reports)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(reports) == 0 {
		fmt.Fprintln(w, "no ucudnn handles created yet")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, rep := range reports {
		fmt.Fprintf(w, "handle %d: mode=%s policy=%s device=%s ws_limit=%d",
			rep.ID, rep.Mode, rep.Policy, rep.Device, rep.WorkspaceLimit)
		if rep.Mode == "WD" {
			fmt.Fprintf(w, " total_ws_limit=%d", rep.TotalWorkspaceLimit)
		}
		fmt.Fprintf(w, " opt_time=%s degraded=%d arena=%d\n",
			time.Duration(rep.OptTimeNS), rep.DegradedPlans, rep.ArenaBytes)
		if len(rep.Plans) == 0 {
			fmt.Fprintln(w, "  (no plans decided yet)")
			continue
		}
		fmt.Fprintln(tw, "  kernel\tconfig\tdivisions\tpredicted\tworkspace\tlimit\tshare")
		for _, p := range rep.Plans {
			fmt.Fprintf(tw, "  %s\t%s\t%d\t%s\t%d\t%d\t%.1f%%\n",
				p.Kernel, p.Config, p.Divisions, time.Duration(p.PredictedNS),
				p.WorkspaceBytes, p.LimitBytes, p.Share*100)
		}
		tw.Flush()
	}
}

// serveProfile returns the live cost-attribution report: the
// profiler's per-phase rows joined with the plan table
// (core.BuildProfileReport). JSON by default; ?format=table renders
// the human-readable attribution table. Note the report only carries
// data while profiling is enabled (prof.Enable, wired to the CLIs'
// -profile flag).
func serveProfile(w http.ResponseWriter, r *http.Request) {
	rep := core.BuildProfileReport()
	if r.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := rep.WriteTable(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, rep)
}

// workspacePoint is one arena-occupancy sample on the timeline.
type workspacePoint struct {
	TNS       int64 `json:"t_ns"`
	Handle    int64 `json:"handle"`
	Requested int64 `json:"requested_bytes"`
	Granted   int64 `json:"granted_bytes"`
	Arena     int64 `json:"arena_bytes"`
}

func serveWorkspace(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Handles []struct {
			ID    int64 `json:"id"`
			Arena int64 `json:"arena_bytes"`
			Limit int64 `json:"workspace_limit_bytes"`
		} `json:"handles"`
		Timeline []workspacePoint `json:"timeline"`
	}{Timeline: []workspacePoint{}}
	for _, h := range core.Handles() {
		rep := h.Report()
		resp.Handles = append(resp.Handles, struct {
			ID    int64 `json:"id"`
			Arena int64 `json:"arena_bytes"`
			Limit int64 `json:"workspace_limit_bytes"`
		}{ID: rep.ID, Arena: rep.ArenaBytes, Limit: rep.WorkspaceLimit})
	}
	// Kind resolution via Lookup keeps the event identity a compile-time
	// constant in core while letting the reader filter numerically.
	growKind, ok := flight.Lookup(core.EvArenaGrow)
	if ok {
		for _, e := range flight.Events(0) {
			if e.Kind != growKind {
				continue
			}
			resp.Timeline = append(resp.Timeline, workspacePoint{
				TNS: e.TimeNS, Handle: e.A, Requested: e.B, Granted: e.C, Arena: e.D})
		}
	}
	writeJSON(w, resp)
}

// serveTimeline builds the live causal timeline from every handle's
// trace recorder plus the causal scope log. Canonical JSON by default
// (the same bytes ucudnn-time -timeline emits); ?format=chrome renders
// Chrome trace-event JSON with flow arrows, ?format=table the
// critical-path/stall report, ?format=analysis the analysis as JSON.
func serveTimeline(w http.ResponseWriter, r *http.Request) {
	var evs []trace.Event
	for _, h := range core.Handles() {
		if rec := h.TraceRecorder(); rec != nil {
			evs = append(evs, rec.Events()...)
		}
	}
	t := causal.Build(evs, causal.Scopes())
	switch r.URL.Query().Get("format") {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		causal.Analyze(t, nil).WriteTable(w)
	case "analysis":
		writeJSON(w, causal.Analyze(t, nil))
	default:
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func serveBuildInfo(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		GoVersion string            `json:"go_version"`
		OS        string            `json:"os"`
		Arch      string            `json:"arch"`
		Module    string            `json:"module,omitempty"`
		Settings  map[string]string `json:"settings,omitempty"`
	}{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		resp.Settings = map[string]string{}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOFLAGS":
				resp.Settings[s.Key] = s.Value
			}
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running debug HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (":0" picks a free port) and serves the debug
// mux in a background goroutine until Close.
func Start(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugserver: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
