package strategy

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// seedDecide is the decision as it was computed before inference was split
// in two: from the full model output, existence for all events at once,
// then interval decoding and adjustment for those that occur.
func seedDecide(b *Bundle, out core.Output, r Rule) metrics.Prediction {
	k := len(out.B)
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	occ := core.DecodeExistence(out, b.Tau1)
	if r.ConformalExistence {
		occ = b.Classifier.Predict(out.B, r.Confidence)
	}
	for j := 0; j < k; j++ {
		if !occ[j] {
			continue
		}
		p.Occur[j] = true
		iv, _ := core.DecodeInterval(out.Theta[j], b.Tau2)
		if r.ConformalInterval {
			iv = b.Regressor.Adjust(j, iv, r.Coverage)
		}
		p.OI[j] = iv
	}
	return p
}

// TestDecideMatchesSeedDecision: Decide — and EHCR().Predict and
// PredictScored, which delegate to it — equals the full-output decision for
// every variant, on the float model and on the quantized twin, with the
// paper's τ2 and with a τ2 no offset reaches (the argmax fallback of
// DecodeInterval). One Scratch and one Prediction are reused across all
// records, so a stale interval of an earlier record would show.
func TestDecideMatchesSeedDecision(t *testing.T) {
	f := getFixture(t)
	rules := map[string]Rule{
		"EHO":  {},
		"EHC":  {ConformalExistence: true, Confidence: 0.9},
		"EHR":  {ConformalInterval: true, Coverage: 0.9},
		"EHCR": EHCRRule(0.9, 0.9),
	}
	for _, tau2 := range []float64{0.5, 0.9999999} {
		fb := f.bundle.WithTaus(0.5, tau2)
		qb, err := fb.WithQuantized()
		if err != nil {
			t.Fatal(err)
		}
		full := map[string]func(x [][]float64) core.Output{
			"float": fb.Model.Predict,
			"quant": qb.Predictor.(*core.QuantModel).Predict,
		}
		for engine, b := range map[string]*Bundle{"float": fb, "quant": qb} {
			var sc Scratch
			var got metrics.Prediction
			occurred, absent, fellBack := 0, 0, 0
			for name, r := range rules {
				for _, rec := range f.splits.Test[:60] {
					out := full[engine](rec.X)
					want := seedDecide(b, out, r)
					scores := b.Decide(rec, r, &sc, &got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s tau2=%v: Decide %+v, seed decision %+v", engine, name, tau2, got, want)
					}
					if !reflect.DeepEqual(scores, out.B) {
						t.Fatalf("%s %s: raw scores %v, model says %v", engine, name, scores, out.B)
					}
					for k, occ := range want.Occur {
						if !occ {
							absent++
							continue
						}
						occurred++
						if _, met := core.DecodeInterval(out.Theta[k], b.Tau2); !met {
							fellBack++
						}
					}
				}
			}
			if occurred == 0 || absent == 0 {
				t.Fatalf("%s tau2=%v: %d occurring, %d absent events — both branches must run", engine, tau2, occurred, absent)
			}
			if tau2 > 0.9 && fellBack == 0 {
				t.Fatalf("%s: tau2=%v never took the argmax fallback", engine, tau2)
			}
			ehcr := b.EHCR(0.9, 0.9)
			for _, rec := range f.splits.Test[:60] {
				want := seedDecide(b, full[engine](rec.X), rules["EHCR"])
				if got := ehcr.Predict(rec); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: EHCR().Predict %+v, seed decision %+v", engine, got, want)
				}
				if got, _ := b.PredictScored(rec, 0.9, 0.9); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: PredictScored %+v, seed decision %+v", engine, got, want)
				}
			}
		}
	}
}

// TestDecideOnStreamMatchesSeedDecision: a camera's stride-1 windows decided
// on one kept Scratch under their frame numbers — the input-projection ring
// hitting on all but one row, Θ decoded from its edges — equal the decision
// taken from the full, frameless model output at every anchor, on the float
// model and the quantized twin, at three τ2, and so do the raw scores. The
// walk crosses an event, so present and absent decisions both occur.
func TestDecideOnStreamMatchesSeedDecision(t *testing.T) {
	f := getFixture(t)
	start := -1
	for _, rec := range f.splits.Test {
		if rec.Label[0] && rec.Frame > 400 {
			start = rec.Frame - 150
			break
		}
	}
	if start < 0 {
		t.Fatal("no positive test record to walk across")
	}
	rule := EHCRRule(0.9, 0.9)
	for _, tau2 := range []float64{0.1, 0.5, 0.9} {
		fb := f.bundle.WithTaus(0.5, tau2)
		qb, err := fb.WithQuantized()
		if err != nil {
			t.Fatal(err)
		}
		full := map[string]func(x [][]float64) core.Output{
			"float": fb.Model.Predict,
			"quant": qb.Predictor.(*core.QuantModel).Predict,
		}
		for engine, b := range map[string]*Bundle{"float": fb, "quant": qb} {
			var sc Scratch
			var got metrics.Prediction
			present, absent := 0, 0
			for at := start; at < start+300; at++ {
				x, err := f.ex.Covariates(at, f.cfg.Window)
				if err != nil {
					t.Fatal(err)
				}
				out := full[engine](x)
				want := seedDecide(b, out, rule)
				scores := b.Decide(dataset.Record{Frame: at, X: x}, rule, &sc, &got)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(scores, out.B) {
					t.Fatalf("%s tau2=%v frame %d: Decide %+v %v, seed decision %+v %v", engine, tau2, at, got, scores, want, out.B)
				}
				if want.Occur[0] {
					present++
				} else {
					absent++
				}
			}
			if present == 0 || absent == 0 {
				t.Fatalf("%s tau2=%v: %d present, %d absent decisions — the walk must cross an event", engine, tau2, present, absent)
			}
		}
	}
}

// TestDecideConcurrentOnSharedBundle: goroutines decide on one float bundle
// at once, each with its own Scratch (run with -race), and every decision
// equals the serial one.
func TestDecideConcurrentOnSharedBundle(t *testing.T) {
	f := getFixture(t)
	recs := f.splits.Test[:40]
	want := PredictAll(f.bundle.EHCR(0.9, 0.9), recs)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			var p metrics.Prediction
			for i := range recs {
				j := (i + g*7) % len(recs)
				f.bundle.Decide(recs[j], EHCRRule(0.9, 0.9), &sc, &p)
				if !reflect.DeepEqual(p, want[j]) {
					t.Errorf("goroutine %d record %d: %+v, serial %+v", g, j, p, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPredictStepAllocs pins the per-frame step of the live regime —
// assemble the stride-1 window from the incremental source, predict — on
// the float model and the quantized twin: the window matrix and the
// returned Prediction are the step's own, while rows, activations and scores
// must come from the ring and the strategy's scratch.
func TestPredictStepAllocs(t *testing.T) {
	f := getFixture(t)
	qb, err := f.bundle.WithQuantized()
	if err != nil {
		t.Fatal(err)
	}
	for engine, b := range map[string]*Bundle{"float": f.bundle, "quant": qb} {
		src, err := features.NewCachedSource(f.ex)
		if err != nil {
			t.Fatal(err)
		}
		strat := b.EHCR(0.9, 0.9)
		at := f.cfg.Window - 1
		step := func() {
			x, err := src.Covariates(at, f.cfg.Window)
			if err != nil {
				t.Fatal(err)
			}
			strat.Predict(dataset.Record{Frame: at, X: x})
			at++
		}
		step() // warm the ring and the scratch
		if n := testing.AllocsPerRun(50, step); n > 8 {
			t.Errorf("%s: predict step allocates %.1f per frame, want <= 8", engine, n)
		}
	}
}

// TestPredictAllMatchesSerial: PredictAll spreads the records over
// GOMAXPROCS workers and stores each prediction at its record's index; at
// GOMAXPROCS 1, 2, 3 and 8 it returns what a serial Predict loop returns,
// for every strategy: the four EventHit variants on the float model (their
// pooled scratch keeps stream rings from any earlier record), EHCR on the
// quantized twin (decisions take turns), OPT, BF, Cox, VQS and APP-VAE.
func TestPredictAllMatchesSerial(t *testing.T) {
	f := getFixture(t)
	qb, err := f.bundle.WithQuantized()
	if err != nil {
		t.Fatal(err)
	}
	cox, err := FitCox(f.splits.Train, f.cfg.Horizon, 0.5, DefaultCoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	vqs, err := NewVQS(f.ex, f.cfg.Horizon, 20)
	if err != nil {
		t.Fatal(err)
	}
	app, err := fitAppVAE(f.ex, f.splits.Train, f.cfg.Horizon, DefaultAppVAEConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	strats := []Strategy{
		f.bundle.EHO(), f.bundle.EHC(0.9), f.bundle.EHR(0.9), f.bundle.EHCR(0.9, 0.9), qb.EHCR(0.9, 0.9),
		Opt{}, BF{Horizon: f.cfg.Horizon}, cox, vqs, app,
	}
	recs := f.splits.Test
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, s := range strats {
		want := make([]metrics.Prediction, len(recs))
		for i, r := range recs {
			want[i] = s.Predict(r)
		}
		for _, p := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(p)
			if got := PredictAll(s, recs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s GOMAXPROCS=%d: PredictAll differs from the serial loop", s.Name(), p)
			}
		}
	}
}
