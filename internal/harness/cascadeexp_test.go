package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"eventhit/internal/cascade"
)

// TestCascadeSweepQuick runs the full default sweep on a quick training
// twice — harness parallelism 1 and 4 — and requires byte-identical JSON,
// the committed-artifact determinism gate in in-process form.
func TestCascadeSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model ladder per sweep cell")
	}
	runJSON := func(par int) []byte {
		t.Helper()
		prev := SetParallelism(par)
		defer SetParallelism(prev)
		var buf bytes.Buffer
		res, err := CascadeSweep(mustTask("TA1"), Quick(), 1, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("sweep rendered no table")
		}
		want := len(CascadeLadders()) * len(CascadeExitConfidences()) * len(CascadeWidthFracs())
		if len(res.Points) != want {
			t.Fatalf("sweep produced %d points, want %d", len(res.Points), want)
		}
		for _, p := range res.Points {
			var exits int64
			for _, r := range p.Rungs {
				exits += r.Exits
			}
			if exits != p.Horizons {
				t.Fatalf("point %s: exits %d != horizons %d", p.Ladder, exits, p.Horizons)
			}
		}
		if math.Abs(res.Selected.RECDelta) > CascadeRECTol || res.Selected.ComputeCut < CascadeMinComputeCut {
			t.Fatalf("selected point outside bounds: %+v", res.Selected)
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p1 := runJSON(1)
	p4 := runJSON(4)
	if !bytes.Equal(p1, p4) {
		t.Fatal("cascade sweep not byte-identical at parallelism 1 vs 4")
	}
}

// TestNewCascadeHelper: the harness constructor inherits the
// environment's training discipline and yields a serving ladder.
func TestNewCascadeHelper(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	task, err := TaskByName("TA10")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(task, tiny(), 5)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := NewCascade(env, cascade.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if casc.Name() != cascade.Name {
		t.Fatalf("name %q", casc.Name())
	}
	pt, err := env.Eval(casc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.REC < 0 && pt.SPL < 0 {
		t.Fatalf("degenerate cascade point %+v", pt)
	}
	s := casc.Stats()
	if s.Horizons != int64(len(env.Splits.Test)) {
		t.Fatalf("cascade served %d horizons, want %d", s.Horizons, len(env.Splits.Test))
	}
}
