package harness

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// tiny returns options that make the figure drivers run in a second or
// two per environment.
func tiny() Options {
	o := Quick()
	o.NTrain, o.NCCalib, o.NRCalib, o.NTest = 150, 120, 100, 120
	o.Epochs = 4
	return o
}

func TestFig4Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	task, err := TaskByName("TA10")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Fig4(task, tiny(), 1, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"EHC", "EHR", "EHCR", "COX", "VQS"} {
		if len(res.Curves[name]) == 0 {
			t.Errorf("curve %s missing", name)
		}
	}
	for _, name := range []string{"EHO", "OPT", "BF"} {
		if _, ok := res.Points[name]; !ok {
			t.Errorf("point %s missing", name)
		}
	}
	if res.Points["OPT"].REC != 1 || res.Points["OPT"].SPL != 0 {
		t.Errorf("OPT = %+v", res.Points["OPT"])
	}
	if res.Points["BF"].REC != 1 || res.Points["BF"].SPL < 0.99 {
		t.Errorf("BF = %+v", res.Points["BF"])
	}
	out := buf.String()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "EHCR curve") {
		t.Fatal("render incomplete")
	}
}

func TestFig4BreakfastIncludesAppVAE(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	task, err := TaskByName("TA13")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig4(task, tiny(), 1, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Points["APP-VAE200"]; !ok {
		t.Error("APP-VAE200 missing on Breakfast task")
	}
	if _, ok := res.Points["APP-VAE1500"]; !ok {
		t.Error("APP-VAE1500 missing on Breakfast task")
	}
}

func TestFig5AndFig6Drivers(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	var buf bytes.Buffer
	res5, err := Fig5(tiny(), 1, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res5) != 4 {
		t.Fatalf("Fig5 tasks = %d", len(res5))
	}
	for ti, r := range res5 {
		if len(r.Points) != len(ConfidenceLevels()) {
			t.Fatalf("Fig5 result %+v", r)
		}
		// REC_c monotone in c.
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].RECc < r.Points[i-1].RECc-1e-9 {
				t.Fatalf("task %d: REC_c not monotone", ti)
			}
		}
	}
	res6, err := Fig6(tiny(), 1, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for ti, r := range res6 {
		// REC_r non-decreasing in alpha.
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].RECr < r.Points[i-1].RECr-1e-9 {
				t.Fatalf("task %d: REC_r not monotone in alpha", ti)
			}
		}
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("render incomplete")
	}
}

func TestFig7Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	var buf bytes.Buffer
	rows, err := Fig7(tiny(), true, []int{10, 25}, 1, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Value != 10 || rows[1].Value != 25 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		for _, target := range Fig7RECTargets() {
			if r.Reached[target] && (r.SPLAt[target] < 0 || r.SPLAt[target] > 1) {
				t.Fatalf("SPL out of range: %+v", r)
			}
		}
	}
	if !strings.Contains(buf.String(), "varying M") {
		t.Fatal("render incomplete")
	}
	if len(Fig7Windows()) == 0 || len(Fig7Horizons()) == 0 {
		t.Fatal("default sweeps empty")
	}
}

func TestFig8Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	pts, err := Fig8(tiny(), 1, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var bf, opt float64
	ehcrSeen := false
	for _, p := range pts {
		switch p.Algorithm {
		case "BF":
			bf = p.USD
		case "OPT":
			opt = p.USD
		case "EHCR":
			ehcrSeen = true
			if p.USD < opt-1e-9 || p.USD > bf+1e-9 {
				// EHCR spends between OPT and BF whenever bf/opt known;
				// order of slice guarantees BF/OPT first.
				t.Fatalf("EHCR spend %v outside [OPT %v, BF %v]", p.USD, opt, bf)
			}
		}
	}
	if !ehcrSeen || bf <= opt || opt <= 0 {
		t.Fatalf("expense anchors wrong: OPT=%v BF=%v", opt, bf)
	}
}

func TestFig9Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers train models")
	}
	pts, err := Fig9(tiny(), 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byTaskAlgo := map[string]int{}
	for _, p := range pts {
		byTaskAlgo[p.Task+"/"+p.Algorithm]++
		if p.FPS <= 0 || math.IsNaN(p.FPS) {
			t.Fatalf("FPS invalid: %+v", p)
		}
		if p.REC < 0 || p.REC > 1 {
			t.Fatalf("REC invalid: %+v", p)
		}
	}
	for _, key := range []string{"TA10/EHCR", "TA10/COX", "TA10/VQS", "TA11/EHCR"} {
		if byTaskAlgo[key] == 0 {
			t.Errorf("missing series %s", key)
		}
	}
}

func TestSummaryDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("summary trains 16 models")
	}
	// Restrict runtime: tiny sizes but all 16 tasks is still the heaviest
	// driver; run it once here to cover the code path.
	o := tiny()
	o.NTrain, o.Epochs = 100, 2
	var buf bytes.Buffer
	rows, err := Summary(o, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxREC < r.EHCR90.REC-1e-9 {
			t.Fatalf("%s: max REC %.3f below EHCR(.9) %.3f", r.Task, r.MaxREC, r.EHCR90.REC)
		}
	}
	if !strings.Contains(buf.String(), "All-task summary") {
		t.Fatal("render incomplete")
	}
}
