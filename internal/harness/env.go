package harness

import (
	"fmt"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// Options sizes one experiment trial. Zero Window/Horizon take the
// dataset's defaults (Table I + §VI.D).
type Options struct {
	Window, Horizon                 int
	NTrain, NCCalib, NRCalib, NTest int
	Epochs                          int
	TrainPosFrac                    float64
	Detector                        features.DetectorConfig
	// TrainParallelism must be 0. Nothing in cmd or internal reads it; it
	// stays only because bench/probes.go (frozen) copies it into
	// core.TrainConfig.Parallelism, which Train rejects unless 0.
	TrainParallelism int
	// Mutate, when non-nil, adjusts the model configuration before
	// training (the no-dropout ablation sets Dropout to 0).
	Mutate func(*core.Config)
}

// DefaultOptions returns trial sizes that train and evaluate a task in a
// few seconds of single-core CPU.
func DefaultOptions() Options {
	return Options{
		NTrain: 800, NCCalib: 500, NRCalib: 400, NTest: 500,
		Epochs:       18,
		TrainPosFrac: 0.5,
		Detector:     features.DefaultDetector(),
	}
}

// Quick returns a reduced-size variant for benchmarks and smoke tests.
func Quick() Options {
	o := DefaultOptions()
	o.NTrain, o.NCCalib, o.NRCalib, o.NTest = 250, 200, 150, 200
	o.Epochs = 6
	return o
}

// Env is one fully prepared trial: generated stream, extractor, record
// splits, trained EventHit bundle and fitted baselines.
type Env struct {
	Task   Task
	Opt    Options
	Cfg    dataset.Config
	Stream *video.Stream
	Ex     *features.Extractor
	Splits *dataset.Splits
	Bundle *strategy.Bundle
	Cox    *strategy.Cox
	VQS    *strategy.VQS
}

// NewEnv generates a stream for the task, builds record splits, trains
// EventHit end-to-end (weights and training order seeded by seed),
// calibrates both conformal layers and fits the Cox and VQS baselines.
// seed controls everything; distinct seeds are the paper's independent
// trials.
func NewEnv(task Task, opt Options, seed int64) (*Env, error) {
	g := mathx.NewRNG(seed)
	st := video.Generate(task.Dataset, g.Split(1))
	ex, err := features.NewExtractor(st, task.EventIdx, opt.Detector, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", task.Name, err)
	}
	cfg := dataset.Config{Window: opt.Window, Horizon: opt.Horizon}
	if cfg.Window == 0 {
		cfg.Window = task.Dataset.Window
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = task.Dataset.Horizon
	}
	splits, err := dataset.Build(ex, dataset.SampleConfig{
		Config: cfg,
		NTrain: opt.NTrain, NCCalib: opt.NCCalib, NRCalib: opt.NRCalib, NTest: opt.NTest,
		TrainPosFrac: opt.TrainPosFrac,
	}, g.Split(2))
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", task.Name, err)
	}
	mcfg := core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, task.NumEvents())
	mcfg.Seed = seed
	if opt.Mutate != nil {
		opt.Mutate(&mcfg)
	}
	m, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = opt.Epochs
	tc.Seed = seed
	if _, err := m.Train(splits.Train, tc); err != nil {
		return nil, fmt.Errorf("harness: training %s: %w", task.Name, err)
	}
	bundle, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
	if err != nil {
		return nil, fmt.Errorf("harness: calibrating %s: %w", task.Name, err)
	}
	cox, err := strategy.FitCox(splits.Train, cfg.Horizon, 0.5, strategy.DefaultCoxConfig())
	if err != nil {
		return nil, fmt.Errorf("harness: fitting Cox for %s: %w", task.Name, err)
	}
	vqs, err := strategy.NewVQS(ex, cfg.Horizon, cfg.Horizon/10)
	if err != nil {
		return nil, err
	}
	return &Env{
		Task: task, Opt: opt, Cfg: cfg,
		Stream: st, Ex: ex, Splits: splits, Bundle: bundle,
		Cox: cox, VQS: vqs,
	}, nil
}
