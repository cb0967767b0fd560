package core

import (
	"fmt"
	"io"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
)

// TrainConfig controls the end-to-end training loop.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the number of records whose gradients are accumulated
	// per optimizer step (the paper trains with batch size 128; smaller
	// values work fine for the compact configurations here).
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// GradClip is a per-element gradient clamp; 0 disables.
	GradClip float64
	// Seed keys the per-epoch shuffle.
	Seed int64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
	// Val, when non-empty, is evaluated (loss, dropout off) after each
	// epoch; together with Patience it enables early stopping.
	Val []dataset.Record
	// Patience stops training after this many consecutive epochs without
	// validation improvement and restores the best weights; 0 disables
	// early stopping. Requires Val.
	Patience int
	// Schedule, when non-nil, overrides LR per epoch (LR is still
	// validated and used as epoch 0's rate when the schedule yields 0).
	Schedule nn.Schedule
	// Parallelism selects the training engine. 0 (the default) runs the
	// original single-goroutine loop. n >= 1 runs the data-parallel engine:
	// each minibatch is sharded across up to n workers, each owning a model
	// replica, and replica gradients are reduced into the primary in fixed
	// micro-batch order. The engine is bit-deterministic in n — any value
	// >= 1 produces identical weights and losses for a given Seed (see
	// DESIGN.md "Data-parallel training") — but its results differ in the
	// last bits from the Parallelism == 0 loop, whose gradient reduction
	// associates record by record and whose dropout masks come from one
	// sequential stream.
	Parallelism int
	// ForceParallelism lifts the default clamp of effective workers to
	// runtime.GOMAXPROCS(0). By default requesting more workers than the
	// box has cores silently runs with fewer — on a 1-CPU machine the
	// extra goroutines only pay sharding overhead (0.89x measured)
	// without changing results (the engine is
	// bit-deterministic in the worker count). Set this to measure
	// oversubscription deliberately.
	ForceParallelism bool
}

// DefaultTrainConfig returns settings that converge on the simulated
// workloads in a few seconds of CPU time.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 32, LR: 3e-3, GradClip: 5, Seed: 1}
}

// TrainStats reports the loss trajectory.
type TrainStats struct {
	// EpochLoss is the mean per-record loss after each epoch.
	EpochLoss []float64
	// ValLoss is the validation loss after each epoch (when Val is set).
	ValLoss []float64
	// BestEpoch is the 0-based epoch whose weights were kept (when early
	// stopping is active); -1 otherwise.
	BestEpoch int
	// StoppedEarly reports whether Patience cut training short.
	StoppedEarly bool
}

// Train fits the model on recs, minimizing the mean of L1+L2 with Adam.
func (m *Model) Train(recs []dataset.Record, tc TrainConfig) (TrainStats, error) {
	if len(recs) == 0 {
		return TrainStats{}, fmt.Errorf("core: empty training set")
	}
	if tc.Epochs <= 0 || tc.BatchSize <= 0 || tc.LR <= 0 {
		return TrainStats{}, fmt.Errorf("core: invalid train config Epochs=%d BatchSize=%d LR=%v", tc.Epochs, tc.BatchSize, tc.LR)
	}
	if tc.Parallelism < 0 {
		return TrainStats{}, fmt.Errorf("core: invalid train config Parallelism=%d", tc.Parallelism)
	}
	if tc.Patience > 0 && len(tc.Val) == 0 {
		return TrainStats{}, fmt.Errorf("core: Patience requires a validation set")
	}
	for i, r := range recs {
		if len(r.X) != m.cfg.Window {
			return TrainStats{}, fmt.Errorf("core: record %d window %d, model expects %d", i, len(r.X), m.cfg.Window)
		}
		if len(r.Label) != m.cfg.NumEvents {
			return TrainStats{}, fmt.Errorf("core: record %d has %d events, model expects %d", i, len(r.Label), m.cfg.NumEvents)
		}
	}
	if tc.Parallelism > 0 {
		return m.trainParallel(recs, tc)
	}
	opt := nn.NewAdam(m.params, tc.LR)
	if tc.GradClip > 0 {
		opt.SetGradClip(tc.GradClip)
	}
	g := mathx.NewRNG(tc.Seed)
	dLogits := make([][]float64, m.cfg.NumEvents)
	for k := range dLogits {
		dLogits[k] = make([]float64, 1+m.cfg.Horizon)
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	stats := TrainStats{BestEpoch: -1}
	bestVal := 0.0
	var bestWeights [][]float64
	sinceBest := 0
	m.drop.SetTraining(true)
	defer m.drop.SetTraining(false)
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		if tc.Schedule != nil {
			if lr := tc.Schedule.LR(epoch); lr > 0 {
				opt.SetLR(lr)
			}
		}
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		inBatch := 0
		for _, idx := range order {
			rec := recs[idx]
			logits := m.rawForward(rec.X)
			epochLoss += m.recordLoss(logits, rec, dLogits)
			m.backward(dLogits)
			inBatch++
			if inBatch == tc.BatchSize {
				scaleGrads(m.params, 1/float64(inBatch))
				opt.Step()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			scaleGrads(m.params, 1/float64(inBatch))
			opt.Step()
		}
		mean := epochLoss / float64(len(recs))
		stats.EpochLoss = append(stats.EpochLoss, mean)
		var val float64
		if len(tc.Val) > 0 {
			m.drop.SetTraining(false)
			for _, r := range tc.Val {
				val += m.Loss(r)
			}
			m.drop.SetTraining(true)
			val /= float64(len(tc.Val))
			stats.ValLoss = append(stats.ValLoss, val)
		}
		if tc.Log != nil {
			if len(tc.Val) > 0 {
				fmt.Fprintf(tc.Log, "epoch %2d/%d  loss %.4f  val %.4f\n", epoch+1, tc.Epochs, mean, val)
			} else {
				fmt.Fprintf(tc.Log, "epoch %2d/%d  loss %.4f\n", epoch+1, tc.Epochs, mean)
			}
		}
		if tc.Patience > 0 {
			if stats.BestEpoch < 0 || val < bestVal {
				bestVal = val
				stats.BestEpoch = epoch
				sinceBest = 0
				bestWeights = snapshotWeights(m.params)
			} else if sinceBest++; sinceBest >= tc.Patience {
				stats.StoppedEarly = true
				restoreWeights(m.params, bestWeights)
				if tc.Log != nil {
					fmt.Fprintf(tc.Log, "early stop at epoch %d, best epoch %d (val %.4f)\n",
						epoch+1, stats.BestEpoch+1, bestVal)
				}
				return stats, nil
			}
		}
	}
	if tc.Patience > 0 && bestWeights != nil {
		restoreWeights(m.params, bestWeights)
	}
	return stats, nil
}

func snapshotWeights(params []*nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

func restoreWeights(params []*nn.Param, snap [][]float64) {
	for i, p := range params {
		copy(p.W, snap[i])
	}
}

func scaleGrads(params []*nn.Param, s float64) {
	for _, p := range params {
		mathx.Scale(s, p.G)
	}
}
