package conformal

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(nil, nil); err == nil {
		t.Fatal("expected error on empty calibration")
	}
	if _, err := NewClassifier([][]float64{{0.5}}, [][]bool{{true, false}}); err == nil {
		t.Fatal("expected error on inconsistent event count")
	}
	// Event with no positives.
	if _, err := NewClassifier([][]float64{{0.5, 0.5}}, [][]bool{{true, false}}); err == nil {
		t.Fatal("expected error for event with no positive calibration records")
	}
	c, err := NewClassifier([][]float64{{0.9}, {0.2}}, [][]bool{{true}, {true}})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() != 1 || c.NumPositives(0) != 2 {
		t.Fatalf("NumEvents=%d NumPositives=%d", c.NumEvents(), c.NumPositives(0))
	}
}

func TestPValueExactCounts(t *testing.T) {
	// Positive scores: 0.2, 0.5, 0.8 (n=3, denominator 4).
	c, err := NewClassifier(
		[][]float64{{0.5}, {0.2}, {0.8}, {0.99}},
		[][]bool{{true}, {true}, {true}, {false}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		b    float64
		want float64
	}{
		{0.1, 0}, {0.2, 1.0 / 4}, {0.3, 1.0 / 4}, {0.5, 2.0 / 4},
		{0.79, 2.0 / 4}, {0.8, 3.0 / 4}, {0.95, 3.0 / 4},
	}
	for _, tc := range cases {
		if got := c.PValue(0, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PValue(%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestPredictMonotoneInConfidence(t *testing.T) {
	// Equation (10): higher confidence gives a superset of positives.
	g := mathx.NewRNG(3)
	n := 200
	calibB := make([][]float64, n)
	calibL := make([][]bool, n)
	for i := range calibB {
		calibB[i] = []float64{g.Float64(), g.Float64()}
		calibL[i] = []bool{g.Bernoulli(0.5), g.Bernoulli(0.5)}
	}
	// Ensure at least one positive each.
	calibL[0] = []bool{true, true}
	c, err := NewClassifier(calibB, calibL)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		b := []float64{g.Float64(), g.Float64()}
		lo := c.Predict(b, 0.6)
		hi := c.Predict(b, 0.9)
		for k := range lo {
			if lo[k] && !hi[k] {
				t.Fatalf("confidence 0.9 dropped a positive kept at 0.6 (b=%v)", b)
			}
		}
	}
}

// Theorem 4.2: on exchangeable data the probability of missing a true
// positive is at most 1-c.
func TestClassifierCoverageGuarantee(t *testing.T) {
	g := mathx.NewRNG(7)
	// A mediocre scorer: positives score Beta-ish high, negatives low, with
	// heavy overlap.
	drawScore := func(positive bool) float64 {
		if positive {
			return mathx.Clamp(g.Normal(0.6, 0.25), 0, 1)
		}
		return mathx.Clamp(g.Normal(0.35, 0.25), 0, 1)
	}
	// The guarantee is marginal: it averages over calibration draws as well
	// as test points, so the check repeats calibration.
	for _, conf := range []float64{0.7, 0.9, 0.95} {
		var kept, positives int
		for rep := 0; rep < 15; rep++ {
			nCalib, nTest := 800, 1500
			calibB := make([][]float64, nCalib)
			calibL := make([][]bool, nCalib)
			for i := range calibB {
				pos := g.Bernoulli(0.3)
				calibB[i] = []float64{drawScore(pos)}
				calibL[i] = []bool{pos}
			}
			calibL[0][0] = true
			c, err := NewClassifier(calibB, calibL)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nTest; i++ {
				pos := g.Bernoulli(0.3)
				if !pos {
					continue
				}
				positives++
				if c.Predict([]float64{drawScore(true)}, conf)[0] {
					kept++
				}
			}
		}
		recall := float64(kept) / float64(positives)
		if recall < conf-0.025 {
			t.Errorf("confidence %v: recall on true positives = %.3f, below guarantee", conf, recall)
		}
	}
}

// ScoreThreshold returns the smallest existence score that would be
// predicted positive at the given confidence for event k: an oracle for
// Predict, from the p-value condition solved in score space.
func (c *Classifier) ScoreThreshold(k int, confidence float64) float64 {
	ps := c.posScores[k]
	// Need count/(n+1) >= 1-c, i.e. count >= ceil((1-c)*(n+1)).
	need := int((1 - confidence) * float64(len(ps)+1))
	if float64(need) < (1-confidence)*float64(len(ps)+1) {
		need++
	}
	if need <= 0 {
		return 0
	}
	if need > len(ps) {
		return 2 // unreachable score: nothing is ever positive
	}
	return ps[need-1]
}

func TestScoreThreshold(t *testing.T) {
	c, err := NewClassifier(
		[][]float64{{0.2}, {0.5}, {0.8}},
		[][]bool{{true}, {true}, {true}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Predict(b, conf) must agree with b >= ScoreThreshold.
	for _, conf := range []float64{0.5, 0.7, 0.75, 0.9, 0.99} {
		thr := c.ScoreThreshold(0, conf)
		for _, b := range []float64{0, 0.1, 0.2, 0.4, 0.5, 0.7, 0.8, 0.9, 1} {
			want := b >= thr
			got := c.Predict([]float64{b}, conf)[0]
			if got != want {
				t.Errorf("conf=%v b=%v: Predict=%v threshold(%v) says %v", conf, b, got, thr, want)
			}
		}
	}
	// At c=1 the p-value condition p >= 0 always holds: everything admitted.
	if thr := c.ScoreThreshold(0, 1); thr != 0 {
		t.Errorf("threshold at c=1 = %v, want 0", thr)
	}
	// Just below 1, at least one positive calibration score must be matched.
	if thr := c.ScoreThreshold(0, 0.9999); thr != 0.2 {
		t.Errorf("threshold at c~1 = %v, want smallest positive score 0.2", thr)
	}
	// Extremely low confidence admits nothing.
	if thr := c.ScoreThreshold(0, 0.01); thr <= 1 {
		t.Errorf("threshold at c~0 = %v, want unreachable", thr)
	}
}

func TestNewRegressorValidation(t *testing.T) {
	if _, err := NewRegressor(0, [][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Fatal("expected error for horizon 0")
	}
	if _, err := NewRegressor(10, nil, nil); err == nil {
		t.Fatal("expected error for empty residuals")
	}
	if _, err := NewRegressor(10, [][]float64{{1}}, [][]float64{{}}); err == nil {
		t.Fatal("expected error for event without residuals")
	}
	if _, err := NewRegressor(10, [][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Fatal("expected error for mismatched event counts")
	}
}

func TestRegressorQuantiles(t *testing.T) {
	r, err := NewRegressor(100,
		[][]float64{{5, 1, 3}}, // sorted: 1 3 5
		[][]float64{{10, 20, 30}},
	)
	if err != nil {
		t.Fatal(err)
	}
	qs, qe := r.Quantiles(0, 0.34) // ceil(0.34*3)=2nd smallest
	if qs != 3 || qe != 20 {
		t.Fatalf("Quantiles = %v %v, want 3 20", qs, qe)
	}
	qs, _ = r.Quantiles(0, 1)
	if qs != 5 {
		t.Fatalf("alpha=1 quantile = %v, want max", qs)
	}
	qs, _ = r.Quantiles(0, 0)
	if qs != 1 {
		t.Fatalf("alpha=0 quantile = %v, want min", qs)
	}
}

func TestAdjustExpandsAndClamps(t *testing.T) {
	r, _ := NewRegressor(100, [][]float64{{10}}, [][]float64{{15}})
	got := r.Adjust(0, video.Interval{Start: 30, End: 50}, 1)
	if got != (video.Interval{Start: 20, End: 65}) {
		t.Fatalf("Adjust = %v", got)
	}
	// Clamping at both ends.
	got = r.Adjust(0, video.Interval{Start: 5, End: 95}, 1)
	if got != (video.Interval{Start: 1, End: 100}) {
		t.Fatalf("clamped Adjust = %v", got)
	}
}

func TestAdjustNestedInAlpha(t *testing.T) {
	// Larger alpha must produce an interval containing the smaller-alpha one.
	g := mathx.NewRNG(5)
	res := make([]float64, 50)
	for i := range res {
		res[i] = g.Float64() * 40
	}
	r, _ := NewRegressor(500, [][]float64{res}, [][]float64{res})
	iv := video.Interval{Start: 200, End: 260}
	prev := r.Adjust(0, iv, 0.05)
	for a := 0.1; a <= 1.0; a += 0.05 {
		cur := r.Adjust(0, iv, a)
		if cur.Start > prev.Start || cur.End < prev.End {
			t.Fatalf("alpha=%v interval %v does not contain %v", a, cur, prev)
		}
		prev = cur
	}
}

// Theorem 5.2: on exchangeable residuals the adjusted band covers the true
// boundary with probability at least alpha.
func TestRegressorCoverageGuarantee(t *testing.T) {
	g := mathx.NewRNG(11)
	const horizon = 500
	// True start ~ U[100,400]; estimate = true + noise.
	noise := func() float64 { return g.Normal(0, 12) }
	nCalib, nTest := 600, 4000
	startRes := make([]float64, nCalib)
	endRes := make([]float64, nCalib)
	for i := range startRes {
		startRes[i] = math.Abs(noise())
		endRes[i] = math.Abs(noise())
	}
	r, err := NewRegressor(horizon, [][]float64{startRes}, [][]float64{endRes})
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.5, 0.8, 0.95} {
		qs, _ := r.Quantiles(0, alpha)
		covered := 0
		for i := 0; i < nTest; i++ {
			if math.Abs(noise()) <= qs {
				covered++
			}
		}
		cov := float64(covered) / float64(nTest)
		if cov < alpha-0.03 {
			t.Errorf("alpha=%v coverage %.3f below guarantee", alpha, cov)
		}
	}
}

func TestClassifierSaveLoad(t *testing.T) {
	c, err := NewClassifier(
		[][]float64{{0.2}, {0.5}, {0.8}, {0.9}},
		[][]bool{{true}, {true}, {true}, {false}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0, 0.2, 0.5, 0.7, 0.9, 1} {
		if c.PValue(0, b) != c2.PValue(0, b) {
			t.Fatalf("p-values differ after round-trip at b=%v", b)
		}
	}
}

func TestLoadClassifierRejectsGarbage(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
	// Structurally invalid snapshots.
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(struct{ PosScores [][]float64 }{})
	if _, err := LoadClassifier(&buf); err == nil {
		t.Fatal("expected error for empty snapshot")
	}
	buf.Reset()
	gob.NewEncoder(&buf).Encode(struct{ PosScores [][]float64 }{PosScores: [][]float64{{0.9, 0.1}}})
	if _, err := LoadClassifier(&buf); err == nil {
		t.Fatal("expected error for unsorted snapshot")
	}
}

func TestRegressorSaveLoad(t *testing.T) {
	r, err := NewRegressor(100, [][]float64{{5, 1, 3}}, [][]float64{{10, 20, 30}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegressor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{0.1, 0.5, 0.9} {
		qs1, qe1 := r.Quantiles(0, a)
		qs2, qe2 := r2.Quantiles(0, a)
		if qs1 != qs2 || qe1 != qe2 {
			t.Fatalf("quantiles differ after round-trip at alpha=%v", a)
		}
	}
	if _, err := LoadRegressor(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// Under exchangeability conformal p-values are (super-)uniform:
// P(p <= t) <= t for every t. Checked empirically over many calibration
// draws.
func TestPValueSuperUniform(t *testing.T) {
	g := mathx.NewRNG(31)
	thresholds := []float64{0.05, 0.1, 0.25, 0.5, 0.75}
	counts := make([]int, len(thresholds))
	total := 0
	for rep := 0; rep < 40; rep++ {
		n := 100
		calibB := make([][]float64, n)
		calibL := make([][]bool, n)
		for i := range calibB {
			calibB[i] = []float64{g.Normal(0, 1)}
			calibL[i] = []bool{true}
		}
		c, err := NewClassifier(calibB, calibL)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			p := c.PValue(0, g.Normal(0, 1)) // exchangeable with calibration
			total++
			for j, thr := range thresholds {
				if p <= thr {
					counts[j]++
				}
			}
		}
	}
	for j, thr := range thresholds {
		freq := float64(counts[j]) / float64(total)
		// super-uniformity with slack for sampling noise (n=4000)
		if freq > thr+0.03 {
			t.Errorf("P(p <= %.2f) = %.3f exceeds the super-uniform bound", thr, freq)
		}
		// and not absurdly conservative either
		if freq < thr-0.08 {
			t.Errorf("P(p <= %.2f) = %.3f far below %.2f: p-values too conservative", thr, freq, thr)
		}
	}
}
