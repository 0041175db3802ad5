package obs

// Exporter-ordering determinism: two registries fed the same series in
// different registration orders must render byte-identical expositions.
// A labelled family registers its series in whatever order their first
// use comes, so this is the property that keeps a scraped run diffable
// across runs and builds.

import (
	"strings"
	"testing"
)

func TestExporterOrderingDeterminism(t *testing.T) {
	phases := []string{
		"ucudnn_ph_winograd_transform_in",
		"ucudnn_ph_gemm_sgemm",
		"ucudnn_ph_fft_forward",
		"ucudnn_ph_gemm_im2col",
	}
	forward := NewRegistry()
	for _, ph := range phases {
		forward.Histogram("ucudnn_kernel_phase_seconds", DurationBuckets, L("phase", ph)).Observe(0.001)
	}
	forward.Gauge("ucudnn_worker_imbalance_ratio").Set(1.25)

	reversed := NewRegistry()
	reversed.Gauge("ucudnn_worker_imbalance_ratio").Set(1.25)
	for i := len(phases) - 1; i >= 0; i-- {
		reversed.Histogram("ucudnn_kernel_phase_seconds", DurationBuckets, L("phase", phases[i])).Observe(0.001)
	}

	for name, write := range map[string]func(*Registry, *strings.Builder) error{
		"prometheus": func(r *Registry, sb *strings.Builder) error { return r.WritePrometheus(sb) },
		"summary":    func(r *Registry, sb *strings.Builder) error { return r.WriteSummary(sb) },
	} {
		var a, b strings.Builder
		if err := write(forward, &a); err != nil {
			t.Fatal(err)
		}
		if err := write(reversed, &b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s exposition depends on registration order:\n--- forward ---\n%s\n--- reversed ---\n%s",
				name, a.String(), b.String())
		}
		// The phase label values themselves must come out sorted.
		var last string
		for _, line := range strings.Split(a.String(), "\n") {
			if !strings.Contains(line, `phase="`) {
				continue
			}
			val := line[strings.Index(line, `phase="`):]
			if name == "prometheus" && !strings.Contains(line, "_count") {
				continue // one comparison point per series
			}
			if last != "" && val < last {
				t.Errorf("%s: phase series out of order: %q after %q", name, val, last)
			}
			last = val
		}
	}
}
