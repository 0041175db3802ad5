package analysis

import (
	"strings"
	"testing"
)

func TestDetlint(t *testing.T)             { RunFixture(t, Detlint, "core") }
func TestDetlintOutOfScope(t *testing.T)   { RunFixture(t, Detlint, "other") }
func TestHotpath(t *testing.T)             { RunFixture(t, Hotpath, "hot") }
func TestWSFloor(t *testing.T)             { RunFixture(t, WSFloor, "ws") }
func TestMetricName(t *testing.T)          { RunFixture(t, MetricName, "metrics") }
func TestFaultPoint(t *testing.T)          { RunFixture(t, FaultPoint, "probe") }
func TestFaultPointExemptPkg(t *testing.T) { RunFixture(t, FaultPoint, "faults") }
func TestPhaseName(t *testing.T)           { RunFixture(t, PhaseName, "kern") }
func TestPhaseNameExemptPkg(t *testing.T)  { RunFixture(t, PhaseName, "prof") }
func TestHotpathCall(t *testing.T)         { RunFixture(t, HotpathCall, "chain") }
func TestAtomicLint(t *testing.T)          { RunFixture(t, AtomicLint, "counters") }
func TestLockOrder(t *testing.T)           { RunFixture(t, LockOrder, "locks") }
func TestPhasePair(t *testing.T)           { RunFixture(t, PhasePair, "pairs") }

// TestMalformedDirective checks that justification-free //ucudnn:allow
// directives are themselves reported, by any analyzer selection.
func TestMalformedDirective(t *testing.T) {
	pkg := loadFixture(t, "directive", "baddir")
	diags, err := Run(pkg, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "directive" || !strings.Contains(d.Message, "malformed") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("ByName(\"\") = %v, %v; want the full suite", all, err)
	}
	got, err := ByName("wsfloor, detlint")
	if err != nil || len(got) != 2 || got[0] != WSFloor || got[1] != Detlint {
		t.Fatalf("ByName(\"wsfloor, detlint\") = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") did not fail")
	}
}
