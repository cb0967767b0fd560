package cascade

import (
	"math"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/obs"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// fixture is a trained single-event THUMOS task with a full bundle and a
// default cascade built under it, shared by the tests.
type fixture struct {
	splits *dataset.Splits
	bundle *strategy.Bundle
	casc   *Cascade
	cfg    dataset.Config
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
		if err != nil {
			panic(err)
		}
		cfg := dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 400, NCCalib: 300, NRCalib: 200, NTest: 300,
			TrainPosFrac: 0.5,
		}
		splits, err := dataset.Build(ex, cfg, mathx.NewRNG(2))
		if err != nil {
			panic(err)
		}
		mcfg := core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1)
		m, err := core.New(mcfg)
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 8
		if _, err := m.Train(splits.Train, tc); err != nil {
			panic(err)
		}
		b, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			panic(err)
		}
		c, err := New(DefaultConfig(), b, splits.Train, splits.CCalib, splits.RCalib, tc)
		if err != nil {
			panic(err)
		}
		fix = &fixture{splits: splits, bundle: b, casc: c, cfg: cfg.Config}
	})
	return fix
}

// freshView returns the fixture's cascade at its own thresholds with zeroed
// stats (views share the rungs).
func freshView(t *testing.T, f *fixture) *Cascade {
	t.Helper()
	v, err := f.casc.WithThresholds(f.casc.Config().ExitConfidence, f.casc.Config().MaxWidthFrac)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no rungs", func(c *Config) { c.Rungs = nil }},
		{"empty rung name", func(c *Config) { c.Rungs[0].Name = "" }},
		{"duplicate rung name", func(c *Config) { c.Rungs[1].Name = c.Rungs[0].Name }},
		{"rung named full", func(c *Config) { c.Rungs[0].Name = "full" }},
		{"scale zero", func(c *Config) { c.Rungs[0].HiddenScale = 0 }},
		{"scale one", func(c *Config) { c.Rungs[0].HiddenScale = 1 }},
		{"stride zero", func(c *Config) { c.Rungs[0].WindowStride = 0 }},
		{"stride beyond window", func(c *Config) { c.Rungs[0].WindowStride = 11 }},
		{"rungs not cost-ordered", func(c *Config) {
			c.Rungs[0], c.Rungs[1] = c.Rungs[1], c.Rungs[0]
		}},
		{"exit confidence one", func(c *Config) { c.ExitConfidence = 1 }},
		{"exit confidence zero", func(c *Config) { c.ExitConfidence = 0 }},
		{"width frac zero", func(c *Config) { c.MaxWidthFrac = 0 }},
		{"width frac above one", func(c *Config) { c.MaxWidthFrac = 1.5 }},
		{"confidence one", func(c *Config) { c.Confidence = 1 }},
		{"coverage one", func(c *Config) { c.Coverage = 1 }},
		{"negative predict cost", func(c *Config) { c.FullPredictMS = -1 }},
	}
	for _, tc := range cases {
		c := base
		c.Rungs = append([]RungSpec(nil), base.Rungs...)
		tc.mutate(&c)
		if err := c.Validate(10); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if err := base.Validate(10); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	f := getFixture(t)
	tc := core.DefaultTrainConfig()
	if _, err := New(DefaultConfig(), nil, f.splits.Train, f.splits.CCalib, f.splits.RCalib, tc); err == nil {
		t.Fatal("nil bundle accepted")
	}
	if _, err := New(DefaultConfig(), f.bundle, nil, f.splits.CCalib, f.splits.RCalib, tc); err == nil {
		t.Fatal("empty train split accepted")
	}
	bad := DefaultConfig()
	bad.Rungs = nil
	if _, err := New(bad, f.bundle, f.splits.Train, f.splits.CCalib, f.splits.RCalib, tc); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestLadderShape(t *testing.T) {
	f := getFixture(t)
	c := f.casc
	if c.Name() != Name || Name != "EH-CASC" {
		t.Fatalf("name %q", c.Name())
	}
	if c.NumRungs() != 3 {
		t.Fatalf("NumRungs = %d, want 3", c.NumRungs())
	}
	names := []string{"tiny", "medium", "full"}
	prev := 0.0
	for i := 0; i < c.NumRungs(); i++ {
		if c.RungSpecAt(i).Name != names[i] {
			t.Fatalf("rung %d named %q, want %q", i, c.RungSpecAt(i).Name, names[i])
		}
		if cost := c.RungCostMS(i); cost <= prev {
			t.Fatalf("rung %d cost %.3f not above previous %.3f", i, cost, prev)
		} else {
			prev = cost
		}
	}
	if c.RungCostMS(2) != c.FullPredictMS() {
		t.Fatalf("full rung charged %.3f, want %.3f", c.RungCostMS(2), c.FullPredictMS())
	}
	// The tiny rung sees a strided window and shrunk hiddens.
	tiny := c.ladder[0]
	mc := tiny.bundle.Model.Config()
	if mc.Window != 3 || tiny.spec.WindowStride != 4 {
		t.Fatalf("tiny window/stride = %d/%d, want 3/4", mc.Window, tiny.spec.WindowStride)
	}
	fullC := f.bundle.Model.Config()
	if mc.HiddenLSTM >= fullC.HiddenLSTM || mc.HiddenLSTM != scaleHidden(fullC.HiddenLSTM, 0.25) {
		t.Fatalf("tiny hidden %d not the scaled width", mc.HiddenLSTM)
	}
	if mc.Seed != fullC.Seed {
		t.Fatal("rung seed differs from the full model")
	}
}

func TestStrideRecords(t *testing.T) {
	// 10-row window at stride 4 keeps rows 1, 5, 9 (0-based), most recent
	// last — the anchored subsample stridedLen promises.
	rec := dataset.Record{X: make([][]float64, 10)}
	for i := range rec.X {
		rec.X[i] = []float64{float64(i)}
	}
	out := strideRecords([]dataset.Record{rec}, 10, 4)
	if len(out[0].X) != 3 {
		t.Fatalf("strided window %d rows, want 3", len(out[0].X))
	}
	for i, want := range []float64{1, 5, 9} {
		if out[0].X[i][0] != want {
			t.Fatalf("row %d = %v, want %v", i, out[0].X[i][0], want)
		}
	}
	if &out[0].X[2][0] != &rec.X[9][0] {
		t.Fatal("strided rows must share storage with the source window")
	}
	// Stride 1 passes records through untouched.
	same := strideRecords([]dataset.Record{rec}, 10, 1)
	if &same[0].X[0] == nil || len(same[0].X) != 10 {
		t.Fatal("stride 1 changed the window")
	}
}

func TestPredictCostedAccounting(t *testing.T) {
	f := getFixture(t)
	c := freshView(t, f)
	minCost, maxCost := c.RungCostMS(0), 0.0
	for i := 0; i < c.NumRungs(); i++ {
		maxCost += c.RungCostMS(i)
	}
	total := 0.0
	for _, rec := range f.splits.Test {
		p, cost := c.PredictCosted(rec)
		if cost < minCost-1e-12 || cost > maxCost+1e-12 {
			t.Fatalf("charged %.3f outside [%.3f, %.3f]", cost, minCost, maxCost)
		}
		total += cost
		for k, occ := range p.Occur {
			if occ && (p.OI[k].Start < 1 || p.OI[k].End > f.cfg.Horizon || p.OI[k].Len() == 0) {
				t.Fatalf("invalid interval %v", p.OI[k])
			}
		}
	}
	s := c.Stats()
	if s.Horizons != int64(len(f.splits.Test)) {
		t.Fatalf("Horizons = %d, want %d", s.Horizons, len(f.splits.Test))
	}
	var exitSum int64
	for _, e := range s.Exits {
		exitSum += e
	}
	if exitSum != s.Horizons {
		t.Fatalf("exits sum %d != horizons %d", exitSum, s.Horizons)
	}
	rates := s.ExitRates()
	rateSum := 0.0
	for _, r := range rates {
		rateSum += r
	}
	if math.Abs(rateSum-1) > 1e-12 {
		t.Fatalf("exit rates sum to %v, want 1", rateSum)
	}
	if math.Abs(s.PredictMS-total) > 1e-9 {
		t.Fatalf("stats PredictMS %.3f != charged total %.3f", s.PredictMS, total)
	}
	if s.ChargedFullMS != float64(s.Horizons)*c.FullPredictMS() {
		t.Fatal("full-model counterfactual cost wrong")
	}
	if got := s.MeanPredictMS(); math.Abs(got-total/float64(s.Horizons)) > 1e-12 {
		t.Fatalf("MeanPredictMS = %v", got)
	}
	if cf := s.ComputeFrac(); cf <= 0 || cf != s.PredictMS/s.ChargedFullMS {
		t.Fatalf("ComputeFrac = %v", cf)
	}
	t.Logf("exit rates %v, compute frac %.3f", rates, s.ComputeFrac())
}

// TestAlwaysEscalateMatchesEHCR: at a vanishing exit confidence only
// p-values >= 1-epsilon admit a label, so every lowered rung yields the
// empty (non-singleton) set, every horizon escalates to the top, and the
// cascade must reproduce the plain EHCR decision bit-for-bit while
// charging the whole ladder.
func TestAlwaysEscalateMatchesEHCR(t *testing.T) {
	f := getFixture(t)
	v, err := f.casc.WithThresholds(1e-6, f.casc.Config().MaxWidthFrac)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := 0.0
	for i := 0; i < v.NumRungs(); i++ {
		wantCost += v.RungCostMS(i)
	}
	ehcr := f.bundle.EHCR(0.9, 0.9)
	for _, rec := range f.splits.Test {
		p, cost := v.PredictCosted(rec)
		if math.Abs(cost-wantCost) > 1e-12 {
			t.Fatalf("escalating horizon charged %.3f, want full ladder %.3f", cost, wantCost)
		}
		want := ehcr.Predict(rec)
		for k := range p.Occur {
			if p.Occur[k] != want.Occur[k] || (p.Occur[k] && p.OI[k] != want.OI[k]) {
				t.Fatal("full-rung decision differs from plain EHCR")
			}
		}
	}
	s := v.Stats()
	for i := 0; i < v.NumRungs()-1; i++ {
		if s.Exits[i] != 0 {
			t.Fatalf("lowered rung %d claimed %d exits under forced escalation", i, s.Exits[i])
		}
	}
	if s.Exits[v.NumRungs()-1] != s.Horizons {
		t.Fatal("full rung must absorb every horizon")
	}
	if s.Escalations != s.Horizons*int64(v.NumRungs()-1) {
		t.Fatalf("Escalations = %d, want %d", s.Escalations, s.Horizons*int64(v.NumRungs()-1))
	}
}

func TestEarlyExitsHappen(t *testing.T) {
	f := getFixture(t)
	c := freshView(t, f)
	for _, rec := range f.splits.Test {
		c.Predict(rec)
	}
	s := c.Stats()
	var early int64
	for i := 0; i < c.NumRungs()-1; i++ {
		early += s.Exits[i]
	}
	if early == 0 {
		t.Fatal("cascade never exited early on the test split — ladder is useless")
	}
	if cf := s.ComputeFrac(); cf >= 1 {
		t.Fatalf("compute fraction %.3f not below full-model cost", cf)
	}
	t.Logf("early exits %d/%d, compute frac %.3f", early, s.Horizons, s.ComputeFrac())
}

func TestWithThresholds(t *testing.T) {
	f := getFixture(t)
	if _, err := f.casc.WithThresholds(1.5, 0.8); err == nil {
		t.Fatal("invalid exit confidence accepted")
	}
	if _, err := f.casc.WithThresholds(0.9, 0); err == nil {
		t.Fatal("invalid width fraction accepted")
	}
	v, err := f.casc.WithThresholds(f.casc.Config().ExitConfidence, f.casc.Config().MaxWidthFrac)
	if err != nil {
		t.Fatal(err)
	}
	if v.ladder[0] != f.casc.ladder[0] {
		t.Fatal("view must share the trained rungs")
	}
	if v.Stats().Horizons != 0 {
		t.Fatal("view must start with fresh stats")
	}
	// Same thresholds, same decisions (serial use).
	for _, rec := range f.splits.Test[:50] {
		a := f.casc.Predict(rec)
		b := v.Predict(rec)
		for k := range a.Occur {
			if a.Occur[k] != b.Occur[k] || (a.Occur[k] && a.OI[k] != b.OI[k]) {
				t.Fatal("same-threshold view predicts differently")
			}
		}
	}
	// A stricter width bound can only push exits upward (more escalation).
	loose, _ := f.casc.WithThresholds(0.98, 1.0)
	tight, _ := f.casc.WithThresholds(0.98, 0.2)
	for _, rec := range f.splits.Test {
		loose.Predict(rec)
		tight.Predict(rec)
	}
	ls, ts := loose.Stats(), tight.Stats()
	lEarly := ls.Horizons - ls.Exits[len(ls.Exits)-1]
	tEarly := ts.Horizons - ts.Exits[len(ts.Exits)-1]
	if tEarly > lEarly {
		t.Fatalf("tighter width bound produced more early exits (%d > %d)", tEarly, lEarly)
	}
}

func TestDeterministicRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("retrains the ladder")
	}
	f := getFixture(t)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 8
	c2, err := New(DefaultConfig(), f.bundle, f.splits.Train, f.splits.CCalib, f.splits.RCalib, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range f.splits.Test {
		a, costA := f.casc.PredictCosted(rec)
		b, costB := c2.PredictCosted(rec)
		if costA != costB {
			t.Fatal("rebuild charges different costs")
		}
		for k := range a.Occur {
			if a.Occur[k] != b.Occur[k] || (a.Occur[k] && a.OI[k] != b.OI[k]) {
				t.Fatal("rebuild predicts differently — rung training is not seed-deterministic")
			}
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	f := getFixture(t)
	c, err := f.casc.WithThresholds(0.98, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Register(reg, obs.Labels{"task": "thumos"})
	for _, rec := range f.splits.Test[:100] {
		c.Predict(rec)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`eventhit_cascade_exits_total{rung="tiny",task="thumos"}`,
		`eventhit_cascade_exits_total{rung="full",task="thumos"}`,
		`eventhit_cascade_exit_rate{rung="medium",task="thumos"}`,
		`eventhit_cascade_rung_cost_ms{rung="tiny",task="thumos"}`,
		`eventhit_cascade_horizons_total{task="thumos"} 100`,
		"eventhit_cascade_escalations_total",
		"eventhit_cascade_predict_ms_total",
		"eventhit_cascade_compute_share",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Scrapes must be safe while another goroutine serves.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range f.splits.Test[100:200] {
			c.Predict(rec)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestStatsSnapshotIsolation(t *testing.T) {
	f := getFixture(t)
	c, err := f.casc.WithThresholds(0.98, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c.Predict(f.splits.Test[0])
	s := c.Stats()
	s.Exits[0] = 999
	if c.Stats().Exits[0] == 999 {
		t.Fatal("Stats returned aliased exit counts")
	}
	s = freshView(t, f).Stats()
	if s.Horizons != 0 || s.PredictMS != 0 || s.Escalations != 0 {
		t.Fatal("a fresh view carries stats residue")
	}
	for _, e := range s.Exits {
		if e != 0 {
			t.Fatal("a fresh view carries exit counts")
		}
	}
	if s.ComputeFrac() != 1 {
		t.Fatal("idle cascade must read a neutral compute fraction")
	}
	if s.MeanPredictMS() != 0 {
		t.Fatal("idle cascade mean cost must be 0")
	}
}

// TestExitRule drives one record through a two-rung ladder whose lowered
// rung is the fixture's tiny model under hand-built calibrations: score
// populations placed around the record's own score select each label set,
// and residuals of zero or a whole horizon make the kept interval narrow or
// too wide. Only a singleton set with a fitting interval may exit; every
// escalation must return the plain EHCR decision.
func TestExitRule(t *testing.T) {
	f := getFixture(t)
	tiny := f.casc.ladder[0]
	const q = 0.9 // exit confidence: a label enters the set at p >= 0.1
	h := f.cfg.Horizon

	// A record whose raw tiny-rung interval is well inside the width bound
	// (EHO at τ1 = 0 decodes every record's interval, unadjusted).
	var rec dataset.Record
	var score float64
	found := false
	raw := tiny.bundle.WithTaus(0, tiny.bundle.Tau2)
	for _, r := range f.splits.Test {
		var w walk
		var p metrics.Prediction
		scores := raw.Decide(w.strided(r, tiny.spec.WindowStride), strategy.Rule{}, &w.sc, &p)
		if scores[0] > 0 && scores[0] < 1 && p.OI[0].Len() <= h/2 {
			rec, score, found = r, scores[0], true
			break
		}
	}
	if !found {
		t.Fatal("no test record with a short raw tiny-rung interval")
	}
	// Nine calibration scores strictly below / above the record's score: a
	// population below puts p at 0.9 for "occur" and 0 for "absent", one
	// above the reverse.
	below, above := make([]float64, 9), make([]float64, 9)
	for i := range below {
		below[i] = score * float64(i+1) / 10
		above[i] = score + (1-score)*float64(i+1)/10
	}
	want := f.bundle.EHCR(0.9, 0.9).Predict(rec)

	cases := []struct {
		name      string
		pos, neg  []float64
		residual  float64
		exit      bool
		wantOccur bool
	}{
		{"occur singleton, narrow interval", below, below, 0, true, true},
		{"occur singleton, interval too wide", below, below, float64(h), false, false},
		{"absent singleton", above, above, 0, true, false},
		{"both labels", below, above, 0, false, false},
		{"empty set", above, below, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calibB [][]float64
			var calibL [][]bool
			for _, v := range tc.pos {
				calibB, calibL = append(calibB, []float64{v}), append(calibL, []bool{true})
			}
			for _, v := range tc.neg {
				calibB, calibL = append(calibB, []float64{v}), append(calibL, []bool{false})
			}
			cls, err := conformal.NewClassifier(calibB, calibL)
			if err != nil {
				t.Fatal(err)
			}
			set, err := conformal.NewSetClassifier(cls, calibB, calibL)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := conformal.NewRegressor(h, [][]float64{{tc.residual}}, [][]float64{{tc.residual}})
			if err != nil {
				t.Fatal(err)
			}
			b := *tiny.bundle
			b.Classifier, b.Regressor = cls, reg
			cfg := f.casc.Config()
			cfg.ExitConfidence = q
			c := &Cascade{
				cfg:     cfg,
				ladder:  []*rung{{spec: tiny.spec, bundle: &b, set: set, costMS: tiny.costMS}, f.casc.ladder[f.casc.NumRungs()-1]},
				horizon: h,
				window:  f.cfg.Window,
			}
			c.stats.Exits = make([]int64, 2)
			p, cost := c.PredictCosted(rec)
			s := c.Stats()
			if tc.exit {
				if s.Exits[0] != 1 || cost != tiny.costMS {
					t.Fatalf("exits %v cost %v: want an exit at the lowered rung", s.Exits, cost)
				}
				if p.Occur[0] != tc.wantOccur {
					t.Fatalf("exit decided occur=%v, want %v", p.Occur[0], tc.wantOccur)
				}
				if p.Occur[0] && p.OI[0].Len() > h/2 {
					t.Fatalf("exit kept interval %v, raw interval was at most %d long", p.OI[0], h/2)
				}
				return
			}
			if s.Exits[1] != 1 || s.Escalations != 1 || cost != tiny.costMS+c.FullPredictMS() {
				t.Fatalf("exits %v escalations %d cost %v: want an escalation to the full rung", s.Exits, s.Escalations, cost)
			}
			if p.Occur[0] != want.Occur[0] || p.OI[0] != want.OI[0] {
				t.Fatalf("escalated decision %+v differs from plain EHCR %+v", p, want)
			}
		})
	}
}

// TestCascadeConcurrentPredictMatchesSerial: goroutines walking one Cascade
// — and, beside them, deciding on the full bundle it was built under — must
// each get the serial walk's predictions and costs, and the counters must
// account for every horizon exactly once. Run under -race (check.sh).
func TestCascadeConcurrentPredictMatchesSerial(t *testing.T) {
	f := getFixture(t)
	serial := freshView(t, f)
	type answer struct {
		p    metrics.Prediction
		cost float64
	}
	want := make([]answer, len(f.splits.Test))
	for i, rec := range f.splits.Test {
		want[i].p, want[i].cost = serial.PredictCosted(rec)
	}
	plain := make([]metrics.Prediction, len(f.splits.Test))
	for i, rec := range f.splits.Test {
		plain[i] = f.bundle.EHCR(0.9, 0.9).Predict(rec)
	}

	c := freshView(t, f)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range f.splits.Test {
				j := (i + g*37) % len(f.splits.Test) // each worker at its own offset
				p, cost := c.PredictCosted(f.splits.Test[j])
				if cost != want[j].cost || !samePrediction(p, want[j].p) {
					t.Errorf("worker %d record %d: concurrent walk differs from the serial one", g, j)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ehcr := f.bundle.EHCR(0.9, 0.9)
		for i, rec := range f.splits.Test {
			if !samePrediction(ehcr.Predict(rec), plain[i]) {
				t.Errorf("record %d: plain EHCR on the shared bundle changed under concurrent walks", i)
				return
			}
		}
	}()
	wg.Wait()

	s, ss := c.Stats(), serial.Stats()
	var exits int64
	for i, e := range s.Exits {
		exits += e
		if e != workers*ss.Exits[i] {
			t.Errorf("rung %d: %d exits over %d workers, serial walk had %d", i, e, workers, ss.Exits[i])
		}
	}
	if n := int64(workers * len(f.splits.Test)); s.Horizons != n || exits != n {
		t.Fatalf("horizons %d, exits %d, want %d", s.Horizons, exits, n)
	}
}

func samePrediction(a, b metrics.Prediction) bool {
	for k := range a.Occur {
		if a.Occur[k] != b.Occur[k] || (a.Occur[k] && a.OI[k] != b.OI[k]) {
			return false
		}
	}
	return len(a.Occur) == len(b.Occur)
}
