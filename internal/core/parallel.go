package core

import (
	"fmt"
	"runtime"
	"sync"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
)

// The data-parallel training engine behind TrainConfig.Parallelism.
//
// Each minibatch is cut into micro-batches of microBatch records. A worker
// owns a model replica (cloned weights, private layer caches and dropout
// stream); it processes whole micro-batches: zero the replica's gradient
// accumulators, run forward/backward over the micro-batch's records in
// order, then flush the accumulated gradients into the micro-batch's
// reduction slot. After the batch barrier, the primary adds the slots back
// in micro-batch order and takes the optimizer step.
//
// Determinism does not come from the worker count — it comes from three
// invariants that hold for every Parallelism >= 1:
//
//  1. micro-batch boundaries depend only on BatchSize, never on the number
//     of workers, so the floating-point association of the gradient sum is
//     fixed;
//  2. the reduction adds slots in ascending micro-batch order on a single
//     goroutine;
//  3. dropout masks are keyed by (Seed, epoch, record position) via
//     Dropout.Reseed rather than drawn from one sequential stream, so a
//     record's masks do not depend on which replica processed it.
//
// Per-record losses are likewise written into a position-indexed buffer and
// summed in index order.

// microBatch is the number of records one worker processes back-to-back
// before flushing gradients to a reduction slot. It trades scheduling
// granularity against flush overhead; it must never depend on the worker
// count, or determinism invariant (1) breaks.
const microBatch = 4

// trainParallel is Train's data-parallel engine (tc.Parallelism >= 1).
// Inputs are already validated.
func (m *Model) trainParallel(recs []dataset.Record, tc TrainConfig) (TrainStats, error) {
	// Oversubscribing cores costs sharding overhead and buys nothing
	// (results are identical at any worker count).
	workers := tc.Parallelism
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if chunks := (len(recs) + microBatch - 1) / microBatch; workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}

	// Replica 0 is the primary itself; the optimizer steps its params and
	// the weight sync fans them back out to the other replicas.
	reps := make([]*Model, workers)
	reps[0] = m
	for w := 1; w < workers; w++ {
		reps[w] = m.Clone()
	}
	nparam := nn.NumParams(m.params)
	maxChunks := (tc.BatchSize + microBatch - 1) / microBatch
	slots := make([][]float64, maxChunks)
	for c := range slots {
		slots[c] = make([]float64, nparam)
	}
	dLogits := make([][][]float64, workers)
	for w := range dLogits {
		dLogits[w] = make([][]float64, m.cfg.NumEvents)
		for k := range dLogits[w] {
			dLogits[w][k] = make([]float64, 1+m.cfg.Horizon)
		}
	}
	lossBuf := make([]float64, len(recs))

	opt := nn.NewAdam(m.params, tc.LR)
	if tc.GradClip > 0 {
		opt.SetGradClip(tc.GradClip)
	}
	g := mathx.NewRNG(tc.Seed)
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	stats := TrainStats{BestEpoch: -1}
	for _, r := range reps {
		r.drop.SetTraining(true)
	}
	defer func() {
		for _, r := range reps {
			r.drop.SetTraining(false)
		}
	}()

	for epoch := 0; epoch < tc.Epochs; epoch++ {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += tc.BatchSize {
			end := start + tc.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			nchunks := (len(batch) + microBatch - 1) / microBatch
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rep := reps[w]
					for c := w; c < nchunks; c += workers {
						nn.ZeroGrads(rep.params)
						lo := c * microBatch
						hi := lo + microBatch
						if hi > len(batch) {
							hi = len(batch)
						}
						for i := lo; i < hi; i++ {
							pos := start + i
							rec := recs[batch[i]]
							rep.drop.Reseed(recSeed(tc.Seed, epoch, pos))
							logits := rep.rawForward(rec.X)
							lossBuf[pos] = rep.recordLoss(logits, rec, dLogits[w])
							rep.backward(dLogits[w])
						}
						slots[c] = nn.FlattenGrads(slots[c], rep.params)
					}
				}(w)
			}
			wg.Wait()
			// Deterministic all-reduce: replica contributions re-enter the
			// primary's accumulators in micro-batch order, on this
			// goroutine only.
			nn.ZeroGrads(m.params)
			for c := 0; c < nchunks; c++ {
				nn.AddFlatGrads(m.params, slots[c])
			}
			scaleGrads(m.params, 1/float64(len(batch)))
			opt.Step()
			for w := 1; w < workers; w++ {
				nn.CopyParams(reps[w].params, m.params)
			}
		}
		var epochLoss float64
		for _, l := range lossBuf {
			epochLoss += l
		}
		mean := epochLoss / float64(len(recs))
		stats.EpochLoss = append(stats.EpochLoss, mean)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %2d/%d  loss %.4f\n", epoch+1, tc.Epochs, mean)
		}
	}
	return stats, nil
}

// recSeed keys one record's dropout stream by (base seed, epoch, position
// in the epoch's shuffled order).
func recSeed(seed int64, epoch, pos int) int64 {
	return int64(mathx.HashU64(uint64(seed), uint64(epoch)+1, uint64(pos)+1))
}
