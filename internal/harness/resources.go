package harness

import (
	"fmt"
	"io"

	"eventhit/internal/core"
)

// ResourceReport covers the deterministic half of §VI.H's accounting: the
// size of the locally deployed EventHit and of the job that trained it. The
// wall-clock half — training, calibration and per-record inference time —
// is measured by bench/ (core.train_s, strategy.calibrate_s,
// core.forward_us).
type ResourceReport struct {
	Params       int
	ParamBytes   int
	TrainRecords int
	TrainEpochs  int
}

// Resources reports EventHit's footprint on a task (§VI.H reports ~150MB
// GPU on the paper's hardware; the shape to check here is that the local
// model is orders of magnitude smaller than anything behind the CI).
func Resources(task Task, opt Options, seed int64, w io.Writer) (*ResourceReport, error) {
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	params := env.Bundle.Model.NumParams()
	rep := &ResourceReport{
		Params:       params,
		ParamBytes:   params * 8,
		TrainRecords: len(env.Splits.Train),
		TrainEpochs:  opt.Epochs,
	}
	t := NewTable(fmt.Sprintf("§VI.H — EventHit resource footprint on %s", task.Name), "quantity", "value")
	t.Addf("parameters", rep.Params)
	t.Addf("model size", fmt.Sprintf("%.1f KiB", float64(rep.ParamBytes)/1024))
	t.Addf("training records", rep.TrainRecords)
	t.Addf("training epochs", rep.TrainEpochs)
	t.Render(w)
	return rep, nil
}

// TrainLossCurve trains a fresh model and reports the per-epoch loss — a
// convergence sanity check exposed by the CLI.
func TrainLossCurve(task Task, opt Options, seed int64, w io.Writer) ([]float64, error) {
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	m, err := core.New(env.Bundle.Model.Config())
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = opt.Epochs
	tc.Log = w
	stats, err := m.Train(env.Splits.Train, tc)
	if err != nil {
		return nil, err
	}
	return stats.EpochLoss, nil
}
