package harness

import (
	"bytes"
	"strings"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

func tuneFixture(t *testing.T) (core.Config, *dataset.Splits) {
	t.Helper()
	st := video.Generate(video.THUMOS(), mathx.NewRNG(2))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 2)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := dataset.Build(ex, dataset.SampleConfig{
		Config: dataset.Config{Window: 10, Horizon: 200},
		NTrain: 150, NCCalib: 120, NRCalib: 100, NTest: 120,
		TrainPosFrac: 0.5,
	}, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(ex.Dim(), 10, 200, 1)
	cfg.HiddenLSTM, cfg.HiddenTrunk, cfg.HiddenHead = 12, 12, 16
	return cfg, splits
}

func TestTuneSearchFindsWorkingConfig(t *testing.T) {
	cfg, splits := tuneFixture(t)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 4
	grid := tuneGrid{Betas: []float64{0.5, 2}, Gammas: []float64{1}}
	var log bytes.Buffer
	results, best, err := tuneSearch(cfg, tc, grid,
		splits.Train, splits.CCalib, splits.RCalib, splits.Test, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if best == nil {
		t.Fatal("no best bundle")
	}
	top, err := tuneBest(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Score > top.Score {
			t.Fatal("Best did not return the max")
		}
	}
	if !strings.Contains(log.String(), "beta=") {
		t.Fatal("log not written")
	}
	// The best config must actually work on validation data.
	score, err := tuneObjective(best, splits.Test, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Fatalf("best objective %.3f not positive", score)
	}
}

func TestTuneSearchValidation(t *testing.T) {
	cfg, splits := tuneFixture(t)
	tc := core.DefaultTrainConfig()
	if _, _, err := tuneSearch(cfg, tc, tuneGrid{},
		splits.Train, splits.CCalib, splits.RCalib, splits.Test, nil); err == nil {
		t.Fatal("expected error for empty grid")
	}
	if _, err := tuneBest(nil); err == nil {
		t.Fatal("expected error for no results")
	}
}

func TestTuneDefaultGrid(t *testing.T) {
	g := defaultTuneGrid()
	if len(g.Betas) == 0 || len(g.Gammas) == 0 {
		t.Fatal("empty default grid")
	}
}
