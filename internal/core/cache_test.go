package core

import (
	"os"
	"path/filepath"
	"testing"

	"ucudnn/internal/cudnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
)

// A benchmark database with torn or corrupted lines must load every intact
// record and skip (not abort on) the rest, counting what it dropped.
func TestCacheSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.db")
	db := `{"key":"k1","perfs":[{"algo":1,"ns":500,"mem":64}]}
{"key":"k2","perfs":[{"algo":2,"ns":700,"mem":0}
not json at all
{"perfs":[{"algo":1,"ns":500,"mem":64}]}

{"key":"k3","perfs":[]}
`
	if err := os.WriteFile(path, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := obs.NewRegistry()
	c.instrument(newMetricSet(reg))
	if got := c.Len(); got != 2 {
		t.Fatalf("loaded %d entries, want 2 (k1 and k3)", got)
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("intact record k1 lost")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("intact record after the corrupt region lost")
	}
	// Torn k2, the junk line, and the keyless record; the blank line is
	// not corruption.
	if got := reg.Counter(MetricCacheCorrupt).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricCacheCorrupt, got)
	}
	if got := reg.Counter(MetricCacheFileLoads).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricCacheFileLoads, got)
	}
}

// Corrupt-line counts observed before instrumentation are replayed into
// the metrics registry when a handle adopts the cache.
func TestCacheCorruptLinesMetricReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.db")
	db := "{\"key\":\"k1\",\"perfs\":[]}\ngarbage\n{broken\n"
	if err := os.WriteFile(path, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithCachePath(path), WithMetrics(reg))
	defer h.Cache().Close()
	if got := reg.Counter(MetricCacheCorrupt).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricCacheCorrupt, got)
	}
}

// An armed cache-load fault mangles lines as the scanner hands them over,
// exercising the same skip path as on-disk corruption. A µ-cuDNN handle
// loads its database under its inner handle's schedule.
func TestCacheLoadFaultManglesLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.db")
	db := "{\"key\":\"k1\",\"perfs\":[]}\n{\"key\":\"k2\",\"perfs\":[]}\n"
	if err := os.WriteFile(path, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(path, faults.New(faults.Rule{Point: faults.PointCacheLoad, Trigger: faults.Nth(1)}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Len(); got != 1 {
		t.Fatalf("loaded %d entries, want 1 (first line mangled)", got)
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("unmangled record k2 lost")
	}
	reg := obs.NewRegistry()
	c.instrument(newMetricSet(reg))
	if got := reg.Counter(MetricCacheCorrupt).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricCacheCorrupt, got)
	}

	fr := faults.New(faults.Rule{Point: faults.PointCacheLoad, Trigger: faults.Nth(2)})
	h := newFaultedHandle(t, fr, cudnn.ModelOnlyBackend, WithCachePath(path))
	defer h.Cache().Close()
	if _, ok := h.Cache().Get("k2"); ok || h.Cache().Len() != 1 || fr.ShotLog() != "ucudnn_fp_cache_load@2(corrupt)" {
		t.Fatalf("handle loaded %d entries (k2 kept: %v) under shots %q, want k1 only", h.Cache().Len(), ok, fr.ShotLog())
	}
}
