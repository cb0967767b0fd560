package core

import (
	"math"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// maxProbDelta runs both models over recs and returns the worst per-logit
// probability difference (existence scores and every θ).
func maxProbDelta(t *testing.T, m *Model, q *QuantModel, recs []dataset.Record) float64 {
	t.Helper()
	worst := 0.0
	for _, r := range recs {
		fo := m.Predict(r.X)
		qo := q.Predict(r.X)
		for k := range fo.B {
			if d := math.Abs(fo.B[k] - qo.B[k]); d > worst {
				worst = d
			}
			for v := range fo.Theta[k] {
				if d := math.Abs(fo.Theta[k][v] - qo.Theta[k][v]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// TestQuantModelParityUntrained checks the pinned per-logit bound on a
// realistically sized model with freshly initialized weights.
func TestQuantModelParityUntrained(t *testing.T) {
	cfg := DefaultConfig(6, 25, 40, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(17)
	recs := make([]dataset.Record, 30)
	for i := range recs {
		x := make([][]float64, cfg.Window)
		for j := range x {
			x[j] = make([]float64, cfg.InputDim)
			for c := range x[j] {
				x[j][c] = g.Float64() // covariates live in [0,1]
			}
		}
		recs[i] = dataset.Record{X: x}
	}
	worst := maxProbDelta(t, m, q, recs)
	if worst > QuantProbTol {
		t.Fatalf("untrained parity: worst per-logit delta %.4g exceeds pinned bound %.4g", worst, QuantProbTol)
	}
	t.Logf("untrained parity: worst per-logit delta %.4g (bound %.4g)", worst, QuantProbTol)
}

// TestQuantModelParityTrained trains a small model to convergence on a
// learnable task, quantizes it, and checks the pinned bound where it
// matters: on post-training weight distributions.
func TestQuantModelParityTrained(t *testing.T) {
	cfg := Config{
		InputDim: 4, Window: 8, Horizon: 10, NumEvents: 2,
		HiddenLSTM: 12, HiddenTrunk: 12, HiddenHead: 16,
		Dropout: 0.1, Seed: 9,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(23)
	recs := make([]dataset.Record, 80)
	for i := range recs {
		x := make([][]float64, cfg.Window)
		for j := range x {
			x[j] = make([]float64, cfg.InputDim)
			for c := range x[j] {
				x[j][c] = g.Float64()
			}
		}
		pos := x[cfg.Window-1][0] > 0.5
		recs[i] = dataset.Record{
			X:        x,
			Label:    []bool{pos, !pos},
			OI:       []video.Interval{{Start: 2, End: 5}, {Start: 4, End: 8}},
			Censored: []bool{false, false},
		}
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 40
	tc.LR = 0.01
	if _, err := m.Train(recs, tc); err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	worst := maxProbDelta(t, m, q, recs)
	if worst > QuantProbTol {
		t.Fatalf("trained parity: worst per-logit delta %.4g exceeds pinned bound %.4g", worst, QuantProbTol)
	}
	t.Logf("trained parity: worst per-logit delta %.4g (bound %.4g)", worst, QuantProbTol)
}

// TestQuantPredictDeterministic: the fixed-point path is pure integer
// arithmetic, so repeated predicts must agree bit for bit.
func TestQuantPredictDeterministic(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	a := q.Predict(rec.X)
	b := q.Predict(rec.X)
	for k := range a.B {
		if a.B[k] != b.B[k] {
			t.Fatalf("existence score %d differs across runs", k)
		}
		for v := range a.Theta[k] {
			if a.Theta[k][v] != b.Theta[k][v] {
				t.Fatalf("theta[%d][%d] differs across runs", k, v)
			}
		}
	}
}

// TestPredictIntoAllocs pins both inference paths at zero allocations per
// predict once the caller's Output buffers are warm.
func TestPredictIntoAllocs(t *testing.T) {
	cfg := DefaultConfig(6, 25, 40, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecordSized(mathx.NewRNG(3), cfg)
	var fo, qo Output
	m.PredictInto(rec.X, &fo) // warm buffers
	q.PredictInto(rec.X, &qo)
	if n := testing.AllocsPerRun(50, func() { m.PredictInto(rec.X, &fo) }); n != 0 {
		t.Errorf("Model.PredictInto allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { q.PredictInto(rec.X, &qo) }); n != 0 {
		t.Errorf("QuantModel.PredictInto allocates %.1f per run, want 0", n)
	}
}

// TestPredictIntoMatchesPredict: the in-place variant must produce exactly
// what Predict produces.
func TestPredictIntoMatchesPredict(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	want := m.Predict(rec.X)
	var got Output
	m.PredictInto(rec.X, &got)
	m.PredictInto(rec.X, &got) // reuse path
	for k := range want.B {
		if want.B[k] != got.B[k] {
			t.Fatalf("B[%d]: %v vs %v", k, want.B[k], got.B[k])
		}
		for v := range want.Theta[k] {
			if want.Theta[k][v] != got.Theta[k][v] {
				t.Fatalf("Theta[%d][%d] differs", k, v)
			}
		}
	}
}

func tinyRecordSized(g *mathx.RNG, cfg Config) dataset.Record {
	x := make([][]float64, cfg.Window)
	for i := range x {
		x[i] = make([]float64, cfg.InputDim)
		for j := range x[i] {
			x[i][j] = g.Float64()
		}
	}
	return dataset.Record{X: x}
}
