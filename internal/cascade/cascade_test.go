package cascade

import (
	"math"
	"sync"
	"testing"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
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

// view returns the fixture's cascade at the given exit operating point with
// zeroed stats; views share the trained rungs, which walks only read.
func view(f *fixture, exitConfidence, maxWidthFrac float64) *Cascade {
	cfg := f.casc.cfg
	cfg.ExitConfidence, cfg.MaxWidthFrac = exitConfidence, maxWidthFrac
	v := &Cascade{cfg: cfg, ladder: f.casc.ladder, horizon: f.casc.horizon}
	v.stats.Exits = make([]int64, len(v.ladder))
	return v
}

// freshView is the fixture's cascade at its own thresholds, zeroed stats.
func freshView(f *fixture) *Cascade {
	return view(f, f.casc.cfg.ExitConfidence, f.casc.cfg.MaxWidthFrac)
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
	names := []string{"tiny", "medium", "full"}
	if len(c.ladder) != len(names) {
		t.Fatalf("%d rungs, want %d", len(c.ladder), len(names))
	}
	for i, r := range c.ladder {
		if r.spec.Name != names[i] {
			t.Fatalf("rung %d named %q, want %q", i, r.spec.Name, names[i])
		}
	}
	if c.ladder[2].bundle != f.bundle {
		t.Fatal("the full rung must be the caller's bundle")
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

// TestAlwaysEscalateMatchesEHCR: at a vanishing exit confidence only
// p-values >= 1-epsilon admit a label, so every lowered rung yields the
// empty (non-singleton) set, every horizon escalates to the top, and the
// cascade must reproduce the plain EHCR decision bit-for-bit.
func TestAlwaysEscalateMatchesEHCR(t *testing.T) {
	f := getFixture(t)
	v := view(f, 1e-6, f.casc.cfg.MaxWidthFrac)
	ehcr := f.bundle.EHCR(0.9, 0.9)
	for _, rec := range f.splits.Test {
		p := v.Predict(rec)
		want := ehcr.Predict(rec)
		for k := range p.Occur {
			if p.Occur[k] != want.Occur[k] || (p.Occur[k] && p.OI[k] != want.OI[k]) {
				t.Fatal("full-rung decision differs from plain EHCR")
			}
		}
	}
	s := v.Stats()
	top := len(v.ladder) - 1
	for i := 0; i < top; i++ {
		if s.Exits[i] != 0 {
			t.Fatalf("lowered rung %d claimed %d exits under forced escalation", i, s.Exits[i])
		}
	}
	if s.Exits[top] != s.Horizons {
		t.Fatal("full rung must absorb every horizon")
	}
}

// TestPredictAccounting: every prediction is a valid decision, and the
// counters account for every horizon exactly once.
func TestPredictAccounting(t *testing.T) {
	f := getFixture(t)
	c := freshView(f)
	for _, rec := range f.splits.Test {
		p := c.Predict(rec)
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
	rateSum := 0.0
	for _, r := range s.ExitRates() {
		rateSum += r
	}
	if math.Abs(rateSum-1) > 1e-12 {
		t.Fatalf("exit rates sum to %v, want 1", rateSum)
	}
}

func TestEarlyExitsHappen(t *testing.T) {
	f := getFixture(t)
	c := freshView(f)
	for _, rec := range f.splits.Test {
		c.Predict(rec)
	}
	s := c.Stats()
	var early int64
	for _, e := range s.Exits[:len(s.Exits)-1] {
		early += e
	}
	if early == 0 {
		t.Fatal("cascade never exited early on the test split")
	}
	t.Logf("early exits %d/%d", early, s.Horizons)
}

// TestWidthBoundMonotone: views at the fixture's own thresholds decide as
// the fixture does, and a stricter width bound can only push exits upward
// (more escalation).
func TestWidthBoundMonotone(t *testing.T) {
	f := getFixture(t)
	v := freshView(f)
	for _, rec := range f.splits.Test[:50] {
		if !samePrediction(f.casc.Predict(rec), v.Predict(rec)) {
			t.Fatal("same-threshold view predicts differently")
		}
	}
	loose, tight := view(f, 0.98, 1.0), view(f, 0.98, 0.2)
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
		if !samePrediction(f.casc.Predict(rec), c2.Predict(rec)) {
			t.Fatal("rebuild predicts differently — rung training is not seed-deterministic")
		}
	}
}

func TestStatsSnapshotIsolation(t *testing.T) {
	f := getFixture(t)
	c := freshView(f)
	if rates := c.Stats().ExitRates(); len(rates) != len(c.ladder) || rates[0] != 0 {
		t.Fatalf("idle cascade exit rates %v", rates)
	}
	c.Predict(f.splits.Test[0])
	s := c.Stats()
	s.Exits[0] = 999
	if c.Stats().Exits[0] == 999 {
		t.Fatal("Stats returned aliased exit counts")
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
			cfg := f.casc.cfg
			cfg.ExitConfidence = q
			c := &Cascade{
				cfg:     cfg,
				ladder:  []*rung{{spec: tiny.spec, bundle: &b, set: set}, f.casc.ladder[len(f.casc.ladder)-1]},
				horizon: h,
			}
			c.stats.Exits = make([]int64, 2)
			p := c.Predict(rec)
			s := c.Stats()
			if tc.exit {
				if s.Exits[0] != 1 {
					t.Fatalf("exits %v: want an exit at the lowered rung", s.Exits)
				}
				if p.Occur[0] != tc.wantOccur {
					t.Fatalf("exit decided occur=%v, want %v", p.Occur[0], tc.wantOccur)
				}
				if p.Occur[0] && p.OI[0].Len() > h/2 {
					t.Fatalf("exit kept interval %v, raw interval was at most %d long", p.OI[0], h/2)
				}
				return
			}
			if s.Exits[1] != 1 {
				t.Fatalf("exits %v: want an escalation to the full rung", s.Exits)
			}
			if p.Occur[0] != want.Occur[0] || p.OI[0] != want.OI[0] {
				t.Fatalf("escalated decision %+v differs from plain EHCR %+v", p, want)
			}
		})
	}
}

// TestCascadeConcurrentPredictMatchesSerial: goroutines walking one Cascade
// — and, beside them, deciding on the full bundle it was built under — must
// each get the serial walk's predictions, and the counters must account
// for every horizon exactly once. Run under -race (check.sh).
func TestCascadeConcurrentPredictMatchesSerial(t *testing.T) {
	f := getFixture(t)
	serial := freshView(f)
	want := make([]metrics.Prediction, len(f.splits.Test))
	for i, rec := range f.splits.Test {
		want[i] = serial.Predict(rec)
	}
	plain := make([]metrics.Prediction, len(f.splits.Test))
	for i, rec := range f.splits.Test {
		plain[i] = f.bundle.EHCR(0.9, 0.9).Predict(rec)
	}

	c := freshView(f)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range f.splits.Test {
				j := (i + g*37) % len(f.splits.Test) // each worker at its own offset
				if !samePrediction(c.Predict(f.splits.Test[j]), want[j]) {
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
