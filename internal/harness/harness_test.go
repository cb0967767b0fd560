package harness

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

func TestTaskByName(t *testing.T) {
	ta7, err := TaskByName("TA7")
	if err != nil {
		t.Fatal(err)
	}
	if ta7.NumEvents() != 2 || ta7.Dataset.Name != "VIRAT" {
		t.Fatalf("TA7 = %+v", ta7)
	}
	if !strings.Contains(ta7.String(), "E1") || !strings.Contains(ta7.String(), "E5") {
		t.Fatalf("String = %s", ta7.String())
	}
	if _, err := TaskByName("TA99"); err == nil {
		t.Fatal("expected error for unknown task")
	}
}

func TestTasksComplete(t *testing.T) {
	tasks := Tasks()
	if len(tasks) != 16 {
		t.Fatalf("len = %d, want 16", len(tasks))
	}
	byDataset := map[string]int{}
	for _, task := range tasks {
		byDataset[task.Dataset.Name]++
		for i, id := range task.EventIDs {
			if task.Dataset.Events[task.EventIdx[i]].ID != id {
				t.Fatalf("%s event index mismatch", task.Name)
			}
		}
	}
	if byDataset["VIRAT"] != 9 || byDataset["THUMOS"] != 3 || byDataset["Breakfast"] != 4 {
		t.Fatalf("dataset split = %v", byDataset)
	}
}

func TestTable1MatchesTargets(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(3, 11, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.GotOcc-float64(r.WantOcc)) > 0.25*float64(r.WantOcc)+3 {
			t.Errorf("E%d occurrences %.1f vs target %d", r.ID, r.GotOcc, r.WantOcc)
		}
		if math.Abs(r.GotMean-r.WantMean) > 0.15*r.WantMean+3 {
			t.Errorf("E%d mean duration %.1f vs target %.1f", r.ID, r.GotMean, r.WantMean)
		}
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("render missing title")
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	tasks := Table2(&buf)
	if len(tasks) != 16 || !strings.Contains(buf.String(), "TA16") {
		t.Fatal("Table2 output incomplete")
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tb := NewTable("title", "a", "bb")
	tb.Addf("x", 1.5)
	tb.AddRow("y", "z", "dropped")
	tb.Render(&buf)
	s := buf.String()
	if !strings.Contains(s, "title") || !strings.Contains(s, "1.500") || strings.Contains(s, "dropped") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestAveragePoints(t *testing.T) {
	a := []Point{{Knob: 0.5, REC: 0.4, SPL: 0.1, Frames: 100}}
	b := []Point{{Knob: 0.5, REC: 0.6, SPL: 0.3, Frames: 200}}
	avg := AveragePoints([][]Point{a, b})
	if len(avg) != 1 || avg[0].REC != 0.5 || avg[0].SPL != 0.2 || avg[0].Frames != 150 {
		t.Fatalf("avg = %+v", avg)
	}
	if AveragePoints(nil) != nil {
		t.Fatal("empty input")
	}
}

func TestMinSPLAtREC(t *testing.T) {
	pts := []Point{
		{REC: 0.5, SPL: 0.1},
		{REC: 0.8, SPL: 0.3},
		{REC: 0.9, SPL: 0.25},
	}
	spl, ok := MinSPLAtREC(pts, 0.8)
	if !ok || spl != 0.25 {
		t.Fatalf("MinSPLAtREC = %v %v", spl, ok)
	}
	if _, ok := MinSPLAtREC(pts, 0.95); ok {
		t.Fatal("unreachable target must report !ok")
	}
}

// envOnce caches one quick environment (TA10) for the expensive tests.
var (
	envOnce sync.Once
	envTA10 *Env
	envErr  error
)

func quickEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		task, err := TaskByName("TA10")
		if err != nil {
			envErr = err
			return
		}
		envTA10, envErr = NewEnv(task, Quick(), 5)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envTA10
}

func TestNewEnvProducesWorkingBundle(t *testing.T) {
	env := quickEnv(t)
	if env.Cfg.Window != 10 || env.Cfg.Horizon != 200 {
		t.Fatalf("cfg = %+v, want THUMOS defaults", env.Cfg)
	}
	p, err := env.Eval(env.Bundle.EHO(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quick TA10 EHO: REC=%.3f SPL=%.3f", p.REC, p.SPL)
	if p.REC <= 0.2 {
		t.Errorf("quick env EHO REC = %.3f, model learned nothing", p.REC)
	}
}

func TestCurvesMonotoneKnobEffects(t *testing.T) {
	env := quickEnv(t)
	ehcr, err := env.CurveEHCR(ConfidenceLevels())
	if err != nil {
		t.Fatal(err)
	}
	if len(ehcr) != len(ConfidenceLevels()) {
		t.Fatalf("curve has %d points", len(ehcr))
	}
	// REC_c is monotone in c for EHCR as well (same classifier decision).
	for i := 1; i < len(ehcr); i++ {
		if ehcr[i].RECc < ehcr[i-1].RECc-1e-9 {
			t.Fatalf("REC_c not monotone: %v", ehcr)
		}
	}
	// The top of the EHCR curve must beat EHO's recall.
	eho, err := env.Eval(env.Bundle.EHO(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ehcr[len(ehcr)-1].REC < eho.REC {
		t.Fatalf("EHCR max REC %.3f below EHO %.3f", ehcr[len(ehcr)-1].REC, eho.REC)
	}
}

func TestFig10SharesSumToOne(t *testing.T) {
	res, err := Fig10(Quick(), 0.5, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ScanShare + res.PredictShare + res.CIShare
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if res.CIShare < 0.5 {
		t.Errorf("CI share = %.3f; the CI should dominate processing time", res.CIShare)
	}
	if res.AchievedREC < 0.5 {
		t.Errorf("achieved REC %.3f below target", res.AchievedREC)
	}
}

func TestResourcesReport(t *testing.T) {
	task, err := TaskByName("TA10")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := Resources(task, Quick(), 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Params <= 0 || rep.ParamBytes != 8*rep.Params || rep.TrainRecords != Quick().NTrain || rep.TrainEpochs != Quick().Epochs {
		t.Fatalf("report = %+v", rep)
	}
	// Wall-clock numbers live in bench/: the table must be the same bytes
	// on every run.
	if out := buf.String(); !strings.Contains(out, "parameters") || strings.Contains(out, " time") {
		t.Fatalf("render = %s", out)
	}
}

func TestAblationsRun(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Ablations(mustTask("TA10"), Quick(), 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
		if r.MaxREC <= 0 || r.MaxREC > 1 {
			t.Fatalf("%s max REC = %v", r.Variant, r.MaxREC)
		}
	}
	for _, want := range []string{"full", "no-dropout", "uniform-sampling", "tau-sweep"} {
		if !names[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Fatal("render incomplete")
	}
}

func TestMultiExperiment(t *testing.T) {
	var buf bytes.Buffer
	res, err := MultiExperiment(Quick(), 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanInstancesPerHorizon < 1.3 {
		t.Errorf("industrial stream not dense enough: %.2f instances/horizon",
			res.MeanInstancesPerHorizon)
	}
	if len(res.Span) != len(res.Runs) || len(res.Span) == 0 {
		t.Fatal("sweep missing")
	}
	for i := range res.Span {
		if res.Span[i].Coverage < 0 || res.Span[i].Coverage > 1 ||
			res.Runs[i].Coverage < 0 || res.Runs[i].Coverage > 1 {
			t.Fatal("coverage out of range")
		}
		// The union of runs can never exceed the adjusted span by much; at
		// minimum it must never relay more frames at equal alpha than the
		// span does (runs are subsets of the span before widening).
		if i > 0 && res.Runs[i].Coverage < res.Runs[i-1].Coverage-1e-9 {
			t.Fatal("run coverage not monotone in alpha")
		}
	}
	// At the lowest alpha, per-run must relay clearly fewer frames.
	if res.Runs[0].Frames >= res.Span[0].Frames {
		t.Errorf("per-run frames %d not below span %d at low alpha",
			res.Runs[0].Frames, res.Span[0].Frames)
	}
	if !strings.Contains(buf.String(), "Multi-instance") {
		t.Fatal("render incomplete")
	}
}

func TestTuneExperiment(t *testing.T) {
	var buf bytes.Buffer
	opt := Quick()
	opt.NTrain, opt.Epochs = 120, 3 // the grid retrains 9 models
	results, err := TuneExperiment(mustTask("TA10"), opt, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("results = %d, want 9 grid points", len(results))
	}
	if !strings.Contains(buf.String(), "winner") {
		t.Fatal("render incomplete")
	}
}

func TestRenderRECSPL(t *testing.T) {
	var buf bytes.Buffer
	RenderRECSPL(&buf, "demo", []Series{
		{Name: "A", Points: []Point{{REC: 1, SPL: 0}, {REC: 0.5, SPL: 0.5}}},
		{Name: "B", Points: []Point{{REC: 0, SPL: 1}}},
		// out-of-range values must clamp, not panic
		{Name: "C", Points: []Point{{REC: 2, SPL: -1}}},
	})
	out := buf.String()
	if !strings.Contains(out, "legend: * A   o B   + C") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "1.0 REC|") || !strings.Contains(out, "0.0 REC|") {
		t.Fatal("axis labels missing")
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "*") {
		t.Fatal("glyphs missing")
	}
	// collision marker: A at (0,1) and C clamped to (0,1) collide
	if !strings.Contains(out, "?") {
		t.Fatal("collision marker missing")
	}
}

func TestValidityTracksLevels(t *testing.T) {
	rows, err := Validity(mustTask("TA10"), Quick(), 2, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Coverage must be in range, increase with the level and sit near
		// it (quick sizes + correlated records allow sizable slack).
		if r.ExistenceCoverage < 0 || r.ExistenceCoverage > 1 {
			t.Fatalf("coverage out of range: %+v", r)
		}
		if i > 0 && r.ExistenceCoverage < rows[i-1].ExistenceCoverage-0.05 {
			t.Errorf("existence coverage not increasing: %+v", rows)
		}
		if r.Level >= 0.9 && r.ExistenceCoverage < r.Level-0.2 {
			t.Errorf("existence coverage %.3f far below level %.2f", r.ExistenceCoverage, r.Level)
		}
		if r.Level >= 0.9 && (r.StartCoverage < r.Level-0.2 || r.EndCoverage < r.Level-0.2) {
			t.Errorf("band coverage far below level: %+v", r)
		}
	}
}

// The paper's §VI.D observation: a multi-event task's overall quality is
// bounded by its worst component event. Verified per-event on TA7 (E1 +
// the hard E5).
func TestMultiEventBoundedByWorst(t *testing.T) {
	task, err := TaskByName("TA7")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(task, Quick(), 5)
	if err != nil {
		t.Fatal(err)
	}
	preds := strategy.PredictAll(env.Bundle.EHO(), env.Splits.Test)
	per, err := metrics.PerEventREC(env.Splits.Test, preds)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := metrics.REC(env.Splits.Test, preds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TA7 per-event REC: E1=%.3f E5=%.3f aggregate=%.3f", per[0], per[1], agg)
	lo, hi := per[0], per[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if agg < lo-1e-9 || agg > hi+1e-9 {
		t.Fatalf("aggregate %.3f outside per-event range [%.3f,%.3f]", agg, lo, hi)
	}
	// E5 (large duration variance) should be the weaker component.
	if per[1] >= per[0] {
		t.Logf("note: E5 (%.3f) not below E1 (%.3f) on this quick seed", per[1], per[0])
	}
}

func TestDensityTrend(t *testing.T) {
	rows, err := Density(Quick(), []float64{1, 4}, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].EventFraction <= rows[0].EventFraction {
		t.Fatalf("event fraction did not grow with the multiplier: %+v", rows)
	}
	// Denser events -> smaller achievable saving (when both reached).
	if rows[0].SavingsAt90 >= 0 && rows[1].SavingsAt90 >= 0 &&
		rows[1].SavingsAt90 > rows[0].SavingsAt90+0.05 {
		t.Fatalf("savings grew with density: %+v", rows)
	}
}

func TestFig4RenderEmptyResultDoesNotPanic(t *testing.T) {
	r := &Fig4Result{Task: "TAx", Curves: map[string][]Point{}, Points: map[string]Point{}}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "TAx") {
		t.Fatal("render produced nothing")
	}
}

// TestFig4RenderDeterministic: the per-event EHO rows of a multi-event task
// print in the task's event order on every render. (Ranging over the Points
// map printed TA9's three rows in any of six orders.)
func TestFig4RenderDeterministic(t *testing.T) {
	r := &Fig4Result{Task: "TA9", Trials: 1, Points: map[string]Point{
		"EHO":     {REC: 0.5, SPL: 0.1},
		"EHO[E6]": {REC: 0.6, SPL: 0.3},
		"EHO[E1]": {REC: 0.4, SPL: 0.1},
		"EHO[E5]": {REC: 0.5, SPL: 0.2},
	}}
	var first bytes.Buffer
	r.Render(&first)
	out := first.String()
	e1, e5, e6 := strings.Index(out, "EHO[E1]"), strings.Index(out, "EHO[E5]"), strings.Index(out, "EHO[E6]")
	if e1 < 0 || e1 > e5 || e5 > e6 {
		t.Fatalf("per-event rows not in EventIDs order:\n%s", out)
	}
	for i := 1; i < 30; i++ {
		var buf bytes.Buffer
		r.Render(&buf)
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, buf.String(), out)
		}
	}
}
