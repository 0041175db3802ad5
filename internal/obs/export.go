package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// fmtFloat renders a float the way Prometheus text exposition does:
// shortest representation that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (version 0.0.4): one TYPE comment per metric family, series
// sorted by (name, labels), histograms expanded into cumulative
// _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.snapshot() {
		typ := "counter"
		if m.g != nil {
			typ = "gauge"
		} else if m.h != nil {
			typ = "histogram"
		}
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
				return err
			}
			lastFamily = m.name
		}
		switch {
		case m.c != nil:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value()); err != nil {
				return err
			}
		case m.g != nil:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, fmtFloat(m.g.Value())); err != nil {
				return err
			}
		case m.h != nil:
			if err := writePromHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketLabels splices le=... into an existing label suffix.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

func writePromHistogram(w io.Writer, m *metric) error {
	cum := int64(0)
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, bucketLabels(m.labels, fmtFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += m.h.counts[len(m.h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, bucketLabels(m.labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, fmtFloat(m.h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, m.h.Count())
	return err
}

// WriteSummary renders the registry as an aligned human-readable table:
// one row per series, histograms condensed to count/sum/mean.
func (r *Registry) WriteSummary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue")
	for _, m := range r.snapshot() {
		switch {
		case m.c != nil:
			fmt.Fprintf(tw, "%s%s\t%d\n", m.name, m.labels, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(tw, "%s%s\t%s\n", m.name, m.labels, fmtFloat(m.g.Value()))
		case m.h != nil:
			n := m.h.Count()
			if n == 0 {
				fmt.Fprintf(tw, "%s%s\tcount=0 sum=0 mean=0\n", m.name, m.labels)
				continue
			}
			mean := m.h.Sum() / float64(n)
			fmt.Fprintf(tw, "%s%s\tcount=%d sum=%s mean=%s p50=%s p95=%s p99=%s\n",
				m.name, m.labels, n, fmtFloat(m.h.Sum()), fmtFloat(mean),
				fmtFloat(m.h.Quantile(0.5)), fmtFloat(m.h.Quantile(0.95)), fmtFloat(m.h.Quantile(0.99)))
		}
	}
	return tw.Flush()
}

// WriteFile exports the registry to path: "-" writes the summary table
// to stdout; a path ending in ".prom" writes Prometheus text exposition;
// any other path gets the summary table. This is the shared behaviour of
// the CLIs' -metrics flags, and how an integration that owns its
// registry (core.WithMetrics) exports it.
func (r *Registry) WriteFile(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if path == "-" {
		return r.WriteSummary(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing metrics: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		return r.WritePrometheus(f)
	}
	return r.WriteSummary(f)
}
