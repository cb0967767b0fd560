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
	// Parallelism must be 0; Train rejects any other value. It selected the
	// removed data-parallel engine and stays only because bench/probes.go
	// (frozen) still assigns it; it goes when that assignment does.
	Parallelism int
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
	// ValLoss, BestEpoch and StoppedEarly are what the removed early-stopping
	// option reported when it was off: nil, -1, false. Nothing sets or reads
	// them any more, but bench/offline.go (frozen) hashes fmt's %v of this
	// struct into offline_repro's decisions_digest, so the shape stays until
	// a [benchmark] PR digests EpochLoss instead.
	ValLoss      []float64
	BestEpoch    int
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
	if tc.Parallelism != 0 {
		return TrainStats{}, fmt.Errorf("core: invalid train config Parallelism=%d, must be 0", tc.Parallelism)
	}
	for i, r := range recs {
		if len(r.X) != m.cfg.Window {
			return TrainStats{}, fmt.Errorf("core: record %d window %d, model expects %d", i, len(r.X), m.cfg.Window)
		}
		if len(r.Label) != m.cfg.NumEvents {
			return TrainStats{}, fmt.Errorf("core: record %d has %d events, model expects %d", i, len(r.Label), m.cfg.NumEvents)
		}
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
	m.drop.SetTraining(true)
	defer m.drop.SetTraining(false)
	for epoch := 0; epoch < tc.Epochs; epoch++ {
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
				m.weightsChanged()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			scaleGrads(m.params, 1/float64(inBatch))
			opt.Step()
			m.weightsChanged()
		}
		mean := epochLoss / float64(len(recs))
		stats.EpochLoss = append(stats.EpochLoss, mean)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %2d/%d  loss %.4f\n", epoch+1, tc.Epochs, mean)
		}
	}
	return stats, nil
}

func scaleGrads(params []*nn.Param, s float64) {
	for _, p := range params {
		mathx.Scale(s, p.G)
	}
}
