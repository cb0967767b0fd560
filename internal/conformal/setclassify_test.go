package conformal

import (
	"math"
	"testing"

	"eventhit/internal/mathx"
)

// newSet calibrates both sides from one score/label set: C-CLASSIFY on the
// positives, then the negative population on top of it.
func newSet(calibB [][]float64, calibLabel [][]bool) (*SetClassifier, error) {
	cls, err := NewClassifier(calibB, calibLabel)
	if err != nil {
		return nil, err
	}
	return NewSetClassifier(cls, calibB, calibLabel)
}

// setFixture calibrates one event from explicit positive and negative
// score populations.
func setFixture(t *testing.T, pos, neg []float64) *SetClassifier {
	t.Helper()
	var b [][]float64
	var l [][]bool
	for _, v := range pos {
		b = append(b, []float64{v})
		l = append(l, []bool{true})
	}
	for _, v := range neg {
		b = append(b, []float64{v})
		l = append(l, []bool{false})
	}
	c, err := newSet(b, l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetClassifierValidation(t *testing.T) {
	if _, err := newSet(nil, nil); err == nil {
		t.Fatal("empty calibration accepted")
	}
	// All-positive: no negative population for the event.
	if _, err := newSet([][]float64{{0.9}}, [][]bool{{true}}); err == nil {
		t.Fatal("event without negatives accepted")
	}
	// All-negative: no positive population.
	if _, err := newSet([][]float64{{0.1}}, [][]bool{{false}}); err == nil {
		t.Fatal("event without positives accepted")
	}
	if _, err := newSet([][]float64{{0.1}, {0.2, 0.3}}, [][]bool{{false}, {true}}); err == nil {
		t.Fatal("ragged record accepted")
	}
	cls, err := NewClassifier([][]float64{{0.9, 0.8}}, [][]bool{{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSetClassifier(nil, [][]float64{{0.1}}, [][]bool{{false}}); err == nil {
		t.Fatal("nil classifier accepted")
	}
	if _, err := NewSetClassifier(cls, [][]float64{{0.1}}, [][]bool{{false}}); err == nil {
		t.Fatal("calibration scores with a different event count than the classifier accepted")
	}
}

func TestSetClassifierPValues(t *testing.T) {
	c := setFixture(t, []float64{0.6, 0.7, 0.8, 0.9}, []float64{0.1, 0.2, 0.3, 0.4})
	// b below every positive score: p_pos = 0/(4+1).
	if got := c.occur.PValue(0, 0.5); got != 0 {
		t.Fatalf("occur.PValue(0.5) = %v, want 0", got)
	}
	// b at or above every positive score: p_pos = 4/5.
	if got := c.occur.PValue(0, 0.9); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("occur.PValue(0.9) = %v, want 0.8", got)
	}
	// b below every negative score: all 4 negatives are >= b.
	if got := c.PValueNeg(0, 0.05); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("PValueNeg(0.05) = %v, want 0.8", got)
	}
	// b above every negative score: none >= b.
	if got := c.PValueNeg(0, 0.5); got != 0 {
		t.Fatalf("PValueNeg(0.5) = %v, want 0", got)
	}
	// Ties count on the inclusive side for both hypotheses.
	if got := c.occur.PValue(0, 0.7); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("occur.PValue(0.7) = %v, want 0.4", got)
	}
	if got := c.PValueNeg(0, 0.3); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("PValueNeg(0.3) = %v, want 0.4", got)
	}
}

func TestSetClassifierDecisiveAndAmbiguous(t *testing.T) {
	// Well-separated populations: scores near the extremes are decisive,
	// scores in the overlap gap are ambiguous (empty set at high
	// strictness, both labels at low strictness).
	c := setFixture(t, []float64{0.7, 0.8, 0.85, 0.9, 0.95}, []float64{0.05, 0.1, 0.15, 0.2, 0.25})

	// A clearly-negative score: {absent} singleton at confidence 0.9.
	s := c.Set(0, 0.1, 0.9)
	if s.Occur || !s.Absent || !s.Singleton() {
		t.Fatalf("low score set = %+v, want singleton absent", s)
	}
	// A clearly-positive score: {occur} singleton.
	s = c.Set(0, 0.9, 0.9)
	if !s.Occur || s.Absent || !s.Singleton() {
		t.Fatalf("high score set = %+v, want singleton occur", s)
	}
	// A mid-gap score at low confidence excludes both labels: not a
	// singleton, the cascade escalates.
	s = c.Set(0, 0.45, 0.1)
	if s.Singleton() {
		t.Fatalf("gap score set = %+v, want non-singleton", s)
	}
	// Overlapping populations: a score conforming with both yields the
	// two-element set — ambiguity the cascade escalates.
	o := setFixture(t, []float64{0.3, 0.5, 0.7}, []float64{0.2, 0.4, 0.6})
	s = o.Set(0, 0.45, 0.9)
	if !s.Occur || !s.Absent {
		t.Fatalf("overlap score set = %+v, want both labels", s)
	}
}

// TestSetClassifierValidity: among exchangeable positives, the fraction
// whose set excludes "occur" is at most 1-confidence (plus the finite-
// sample 1/(n+1) slack) — the marginal guarantee the cascade's safe-exit
// argument rests on.
func TestSetClassifierValidity(t *testing.T) {
	// Leave-one-out over an arithmetic positive population.
	n := 99
	var pos []float64
	for i := 0; i < n; i++ {
		pos = append(pos, float64(i+1)/float64(n+1))
	}
	for _, conf := range []float64{0.9, 0.95, 0.98} {
		excluded := 0
		for i := 0; i < n; i++ {
			rest := make([]float64, 0, n-1)
			rest = append(rest, pos[:i]...)
			rest = append(rest, pos[i+1:]...)
			c := &SetClassifier{occur: &Classifier{posScores: [][]float64{rest}}, neg: [][]float64{{0}}}
			if !c.Set(0, pos[i], conf).Occur {
				excluded++
			}
		}
		bound := (1 - conf) + 1/float64(n)
		if frac := float64(excluded) / float64(n); frac > bound+1e-9 {
			t.Fatalf("confidence %v: %.3f of positives excluded, bound %.3f", conf, frac, bound)
		}
	}
}

// TestSetClassifierOccurSideIsClassifier: with the occur side delegated to
// the Classifier, Set must return the verdicts of the definition — each
// label's p-value counted straight off its unsorted calibration population
// — on a seeded score grid that includes exact ties at calibration scores.
func TestSetClassifierOccurSideIsClassifier(t *testing.T) {
	g := mathx.NewRNG(7)
	var pos, neg []float64
	for i := 0; i < 40; i++ {
		// Two-decimal scores: repeats within and across the populations.
		pos = append(pos, math.Round(100*(0.35+0.6*g.Float64()))/100)
		neg = append(neg, math.Round(100*0.65*g.Float64())/100)
	}
	c := setFixture(t, pos, neg)
	grid := append(append([]float64{0, 1}, pos...), neg...)
	for i := 0; i < 200; i++ {
		grid = append(grid, g.Float64())
	}
	for _, b := range grid {
		atOrBelow, atOrAbove := 0, 0
		for _, v := range pos {
			if v <= b {
				atOrBelow++
			}
		}
		for _, v := range neg {
			if v >= b {
				atOrAbove++
			}
		}
		pPos := float64(atOrBelow) / float64(len(pos)+1)
		pNeg := float64(atOrAbove) / float64(len(neg)+1)
		for _, conf := range []float64{0.5, 0.8, 0.9, 0.95, 0.98} {
			want := LabelSet{Occur: pPos >= 1-conf, Absent: pNeg >= 1-conf}
			if got := c.Set(0, b, conf); got != want {
				t.Fatalf("Set(b=%v, conf=%v) = %+v, want %+v (p_pos %v, p_neg %v)", b, conf, got, want, pPos, pNeg)
			}
		}
		if got := c.occur.PValue(0, b); got != pPos {
			t.Fatalf("occur p-value at %v = %v, want %v", b, got, pPos)
		}
		if got := c.PValueNeg(0, b); got != pNeg {
			t.Fatalf("PValueNeg(%v) = %v, want %v", b, got, pNeg)
		}
	}
}
