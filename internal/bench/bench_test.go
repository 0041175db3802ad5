package bench

import (
	"bytes"
	"strings"
	"testing"

	"ucudnn/internal/core"
	"ucudnn/internal/device"
)

// smallCfg keeps experiment tests fast: one iteration, discard-capable
// buffer outputs.
func smallCfg() (Config, *bytes.Buffer, *bytes.Buffer) {
	var out, csv bytes.Buffer
	return Config{Device: device.P100, Iters: 1, Out: &out, CSV: &csv}, &out, &csv
}

func TestNamesAndDispatch(t *testing.T) {
	names := Names()
	if len(names) != len(Experiments) {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names not sorted")
		}
	}
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable1(t *testing.T) {
	cfg, out, csv := smallCfg()
	if err := Table1(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"K80", "P100-SXM2", "V100-SXM2", "10.60", "Table I"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table1 missing %q in:\n%s", want, s)
		}
	}
	if !strings.Contains(csv.String(), "device,") {
		t.Fatal("csv header missing")
	}
}

func TestFig1RunsAndShowsCliff(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 64
	if err := Fig1(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "conv2") || !strings.Contains(s, "Fig 1(b)") {
		t.Fatalf("fig1 output incomplete:\n%s", s)
	}
	// Every layer row reports a slowdown >= 1.00x.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "x") && strings.HasPrefix(line, "conv") {
			if strings.Contains(line, "0.") && strings.HasSuffix(strings.TrimSpace(line), "0.99x") {
				t.Fatalf("fallback faster than best: %s", line)
			}
		}
	}
}

func TestFig8FrontShape(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 32
	if err := Fig8(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "desirable configurations") || !strings.Contains(s, "FFT") {
		t.Fatalf("fig8 output incomplete:\n%s", s)
	}
}

func TestFig9SpeedupDirection(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 128
	if err := Fig9(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "undivided") || !strings.Contains(s, "powerOfTwo") || !strings.Contains(s, "all") {
		t.Fatalf("fig9 rows missing:\n%s", s)
	}
	// The undivided row is the 1.00x baseline.
	if !strings.Contains(s, "1.00x") {
		t.Fatal("baseline row missing")
	}
}

func TestRunPolicySweepSmall(t *testing.T) {
	cfg, out, csv := smallCfg()
	if err := runPolicySweep(cfg, "alexnet", 32, []int64{64}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"conv1", "conv5", "speedup_total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("sweep missing %q:\n%s", want, s)
		}
	}
	lines := strings.Count(csv.String(), "\n")
	if lines != 4 { // header + 3 policies
		t.Fatalf("csv rows = %d, want 4", lines)
	}
}

func TestFig12SmallBatch(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 16
	if err := Fig12(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "reduction") || !strings.Contains(s, "alexnet") || !strings.Contains(s, "resnet18") {
		t.Fatalf("fig12 output incomplete:\n%s", s)
	}
}

func TestFig14Assignment(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 64
	if err := Fig14(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "conv2") || !strings.Contains(s, "total assigned") {
		t.Fatalf("fig14 output incomplete:\n%s", s)
	}
	// conv2 must be a named row, not a raw shape.
	if strings.Contains(s, "in=") && strings.Contains(s, "filt=") {
		t.Fatal("kernel naming failed (raw shapes leaked)")
	}
}

func TestSummarySmall(t *testing.T) {
	// Summary at full batch is the real reproduction; here just ensure the
	// table renders with all five metrics at reduced cost is too slow, so
	// check the conv2 metrics only via Fig9/Fig1 above and run Summary's
	// fast rows through a small AlexNet sweep instead.
	cfg, out, _ := smallCfg()
	if err := runPolicySweep(cfg, "alexnet", 64, []int64{64}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1.00x") {
		t.Fatal("sweep baseline missing")
	}
}

func TestNetRunModes(t *testing.T) {
	cfg, _, _ := smallCfg()
	if _, _, err := netRun(cfg, "alexnet", "bogus", core.PolicyAll, MiB, 8); err == nil {
		t.Fatal("bogus mode must error")
	}
	if _, _, err := netRun(cfg, "bogus", "wr", core.PolicyAll, MiB, 8); err == nil {
		t.Fatal("bogus network must error")
	}
	rep, run, err := netRun(cfg, "inception", "wd", core.PolicyPowerOfTwo, 64*MiB, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 || run.UC == nil || run.UC.WDStats() == nil {
		t.Fatal("wd netRun incomplete")
	}
}

func TestConv2Shape(t *testing.T) {
	cs := Conv2(256)
	if cs.OutShape().H != 27 || cs.Filt.K != 192 {
		t.Fatalf("conv2 shape wrong: %v", cs)
	}
	shapes := alexNetFwdShapes(8)
	if len(shapes) != 5 || shapes[0].Name != "conv1" {
		t.Fatal("alexnet shapes wrong")
	}
	for _, s := range shapes {
		if !s.Shape.Valid() {
			t.Fatalf("%s invalid", s.Name)
		}
	}
}

// The remaining full experiments at tiny batches: each must run to
// completion and emit its key sections.
func TestFig10TinyBatch(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 8
	if err := Fig10(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, dev := range []string{"K80", "P100-SXM2", "V100-SXM2"} {
		if !strings.Contains(s, dev) {
			t.Fatalf("fig10 missing device %s", dev)
		}
	}
}

func TestFig11TinyBatch(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 8
	if err := Fig11(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, net := range []string{"alexnet", "resnet50", "densenet40"} {
		if !strings.Contains(s, net) {
			t.Fatalf("fig11 missing %s", net)
		}
	}
}

func TestFig13TinyBatch(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 8
	if err := Fig13(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "WD") || !strings.Contains(s, "WR") || !strings.Contains(s, "kernels") {
		t.Fatalf("fig13 incomplete:\n%s", s)
	}
}

func TestSummaryTinyBatch(t *testing.T) {
	cfg, out, _ := smallCfg()
	if err := Summary(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, metric := range []string{"4.51x", "2.33x", "1.63x", "1.21x"} {
		if !strings.Contains(s, metric) {
			t.Fatalf("summary missing paper value %s:\n%s", metric, s)
		}
	}
}

func TestOptTimeRuns(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 16
	if err := OptTime(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "binary_vars") {
		t.Fatal("opttime missing ILP stats")
	}
}

func TestAblationRuns(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 16
	if err := Ablation(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Pareto pruning") || !strings.Contains(s, "deduplication") || !strings.Contains(s, "cache reuse") {
		t.Fatalf("ablation incomplete:\n%s", s)
	}
	// Pruning reduction must be astronomically large even at tiny batches.
	if !strings.Contains(s, "e+") {
		t.Fatal("no exponential reduction reported")
	}
}

func TestConcurrencyExperiment(t *testing.T) {
	cfg, out, _ := smallCfg()
	cfg.Batch = 32
	if err := Concurrency(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "WD ILP division") || !strings.Contains(s, "critical_path_ms") {
		t.Fatalf("concurrency incomplete:\n%s", s)
	}
}
