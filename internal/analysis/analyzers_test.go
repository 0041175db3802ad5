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

// TestMalformedDirective checks that justification-free //ucudnn:allow
// directives are themselves reported, by any analyzer selection.
func TestMalformedDirective(t *testing.T) {
	pkg := loadFixture(t, "directive", "baddir")
	res, err := Run([]*Package{pkg}, All)
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diags
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "directive" || !strings.Contains(d.Message, "malformed") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
