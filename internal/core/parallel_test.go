package core

import (
	"runtime"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
)

// parallelFixture builds a small training problem with dropout enabled, so
// the determinism tests also exercise the counter-based mask streams.
func parallelFixture(t *testing.T) (Config, []dataset.Record) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Dropout = 0.25
	g := mathx.NewRNG(11)
	train := make([]dataset.Record, 26) // not a multiple of batch or micro-batch
	for i := range train {
		train[i] = tinyRecord(g, cfg)
	}
	return cfg, train
}

func snapshotWeights(m *Model) [][]float64 {
	out := make([][]float64, len(m.params))
	for i, p := range m.params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

func trainWithParallelism(t *testing.T, p int) (TrainStats, [][]float64) {
	t.Helper()
	cfg, train := parallelFixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(train, TrainConfig{
		Epochs: 4, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 7,
		Parallelism: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, snapshotWeights(m)
}

// TestTrainParallelDeterminism is the parity check behind the Parallelism
// knob: any worker count must produce bit-identical loss trajectories and
// final weights for a given seed.
func TestTrainParallelDeterminism(t *testing.T) {
	baseStats, baseW := trainWithParallelism(t, 1)
	if len(baseStats.EpochLoss) != 4 {
		t.Fatalf("unexpected trajectory length %d", len(baseStats.EpochLoss))
	}
	for _, p := range []int{2, 4} {
		stats, w := trainWithParallelism(t, p)
		for e := range baseStats.EpochLoss {
			if stats.EpochLoss[e] != baseStats.EpochLoss[e] {
				t.Errorf("P=%d epoch %d loss %v, P=1 got %v", p, e, stats.EpochLoss[e], baseStats.EpochLoss[e])
			}
		}
		for i := range baseW {
			for j := range baseW[i] {
				if w[i][j] != baseW[i][j] {
					t.Fatalf("P=%d param %d[%d] = %v, P=1 got %v", p, i, j, w[i][j], baseW[i][j])
				}
			}
		}
	}
}

// TestTrainParallelRerunStable guards against shared-state leaks between
// runs (scratch buffers, dropout streams): the same call twice must agree
// exactly.
func TestTrainParallelRerunStable(t *testing.T) {
	s1, w1 := trainWithParallelism(t, 4)
	s2, w2 := trainWithParallelism(t, 4)
	for e := range s1.EpochLoss {
		if s1.EpochLoss[e] != s2.EpochLoss[e] {
			t.Errorf("epoch %d loss differs across reruns: %v vs %v", e, s1.EpochLoss[e], s2.EpochLoss[e])
		}
	}
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatalf("param %d[%d] differs across reruns", i, j)
			}
		}
	}
}

// TestTrainParallelLearns checks the parallel engine actually optimizes:
// loss falls over a few epochs.
func TestTrainParallelLearns(t *testing.T) {
	cfg, train := parallelFixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(train, TrainConfig{
		Epochs: 8, BatchSize: 8, LR: 5e-3, GradClip: 5, Seed: 7,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := stats.EpochLoss[0]
	last := stats.EpochLoss[len(stats.EpochLoss)-1]
	if !(last < first) {
		t.Fatalf("parallel training did not reduce loss: first %v, last %v", first, last)
	}
}

func TestTrainParallelismValidation(t *testing.T) {
	cfg, train := parallelFixture(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.Parallelism = -1
	if _, err := m.Train(train, tc); err == nil {
		t.Fatal("negative Parallelism should be rejected")
	}
}

// TestModelClone checks the replica contract: identical outputs, fully
// independent parameter storage.
func TestModelClone(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(9), cfg)
	c := m.Clone()
	if want, got := m.Loss(rec), c.Loss(rec); want != got {
		t.Fatalf("clone loss %v differs from original %v", got, want)
	}
	c.params[0].W[0] += 1
	if m.params[0].W[0] == c.params[0].W[0] {
		t.Fatal("clone shares weight storage with the original")
	}
}

// TestOversubscribedWorkersBitIdentical: the engine clamps workers to
// GOMAXPROCS; the clamped run and a run with 16 schedulable workers (the
// test raises GOMAXPROCS for its duration, so it must not run in parallel
// with other tests) must produce bit-identical results — the clamp is a pure
// wall-clock optimization.
func TestOversubscribedWorkersBitIdentical(t *testing.T) {
	cfg, train := parallelFixture(t)
	run := func() (TrainStats, [][]float64) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Train(train, TrainConfig{
			Epochs: 3, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 7,
			Parallelism: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, snapshotWeights(m)
	}
	clampedStats, clampedW := run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	forcedStats, forcedW := run()
	for e := range clampedStats.EpochLoss {
		if clampedStats.EpochLoss[e] != forcedStats.EpochLoss[e] {
			t.Fatalf("epoch %d loss differs: clamped %v forced %v",
				e, clampedStats.EpochLoss[e], forcedStats.EpochLoss[e])
		}
	}
	for p := range clampedW {
		for i := range clampedW[p] {
			if clampedW[p][i] != forcedW[p][i] {
				t.Fatalf("weight [%d][%d] differs between clamped and forced runs", p, i)
			}
		}
	}
}
