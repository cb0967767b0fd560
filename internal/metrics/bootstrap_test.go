package metrics

import (
	"strings"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// bootstrapFixture builds n records where the prediction covers the truth
// with per-record coverage drawn around mean 0.7.
func bootstrapFixture(n int, seed int64) ([]dataset.Record, []Prediction) {
	g := mathx.NewRNG(seed)
	recs := make([]dataset.Record, n)
	preds := make([]Prediction, n)
	for i := range recs {
		trueLen := 20
		start := 10 + g.Intn(50)
		truth := video.Interval{Start: start, End: start + trueLen - 1}
		recs[i] = rec1(true, truth)
		covered := int(mathx.Clamp(g.Normal(0.7, 0.15), 0.05, 1) * float64(trueLen))
		if covered < 1 {
			covered = 1
		}
		preds[i] = pred1(true, video.Interval{Start: start, End: start + covered - 1})
	}
	return recs, preds
}

func TestRECBootstrapCoversPoint(t *testing.T) {
	recs, preds := bootstrapFixture(300, 1)
	ci, err := RECBootstrap(recs, preds, 400, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Point < ci.Lo || ci.Point > ci.Hi {
		t.Fatalf("interval %v does not contain its own point", ci)
	}
	if ci.Lo >= ci.Hi {
		t.Fatalf("degenerate interval %v", ci)
	}
	// Width should be modest for n=300 (std ~ 0.15/sqrt(300) ~ 0.009).
	if ci.Hi-ci.Lo > 0.08 {
		t.Fatalf("interval too wide: %v", ci)
	}
	if !strings.Contains(ci.String(), "[") {
		t.Fatal("String broken")
	}
}

func TestBootstrapWidthShrinksWithN(t *testing.T) {
	small, sp := bootstrapFixture(50, 2)
	large, lp := bootstrapFixture(800, 2)
	ciS, err := RECBootstrap(small, sp, 300, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	ciL, err := RECBootstrap(large, lp, 300, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ciL.Hi-ciL.Lo >= ciS.Hi-ciS.Lo {
		t.Fatalf("CI width did not shrink: n=50 %v vs n=800 %v", ciS, ciL)
	}
}

func TestBootstrapValidation(t *testing.T) {
	recs, preds := bootstrapFixture(20, 6)
	if _, err := RECBootstrap(recs, preds, 5, 0.95, 1); err == nil {
		t.Fatal("expected error for too few resamples")
	}
	if _, err := RECBootstrap(recs, preds, 100, 1.5, 1); err == nil {
		t.Fatal("expected error for bad level")
	}
	if _, err := RECBootstrap(nil, nil, 100, 0.95, 1); err == nil {
		t.Fatal("expected error for empty inputs")
	}
	if _, err := RECBootstrap(recs[:5], preds, 100, 0.95, 1); err == nil {
		t.Fatal("expected error for misaligned inputs")
	}
}

func TestBootstrapDeterministicPerSeed(t *testing.T) {
	recs, preds := bootstrapFixture(100, 8)
	a, _ := RECBootstrap(recs, preds, 200, 0.95, 9)
	b, _ := RECBootstrap(recs, preds, 200, 0.95, 9)
	if a != b {
		t.Fatal("bootstrap not deterministic per seed")
	}
	c, _ := RECBootstrap(recs, preds, 200, 0.95, 10)
	if a == c {
		t.Fatal("different seeds gave identical intervals")
	}
}
