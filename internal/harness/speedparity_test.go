package harness

import (
	"math"
	"testing"
)

// TestSpeedParityQuick runs the deterministic parity block on a quick
// training and checks every invariant holds end to end.
func TestSpeedParityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	p, err := SpeedParityCheck(mustTask("TA1"), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CovariatesIdentical || !p.ReportsByteIdentical {
		t.Fatalf("parity block = %+v", p)
	}
	if p.ReportHash == "" {
		t.Fatal("parity block carries no report hash")
	}
	if p.MaxProbDelta <= 0 || p.MaxProbDelta > p.ProbBound {
		t.Fatalf("max prob delta %.4g outside (0, %.4g]", p.MaxProbDelta, p.ProbBound)
	}
	if math.Abs(p.RECDelta) > p.RECBound {
		t.Fatalf("REC delta %.4f exceeds bound %.4g", p.RECDelta, p.RECBound)
	}
}
