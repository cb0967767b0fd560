package eventhit_test

// One benchmark per registry experiment (reduced sizes), plus on-demand
// micro-benchmarks of what bench/probes.go does not time: the nn layers,
// stream generation and the training loop. Run:
//
//	go test -bench=. -benchmem -benchtime=1x
//	go test -bench='Experiments/fig5$' -benchtime=1x
//
// Nothing gates on these numbers: wall-clock claims are made on bench/
// (BENCHMARK.json), whose protocol normalizes for this machine's drift.

import (
	"io"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
	"eventhit/internal/video"
)

// BenchmarkExperiments runs every registry entry once per iteration at its
// canonical configuration cut to quick sizes and a single trial, so a bench
// run doubles as a smoke-level reproduction of each table and figure.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			p := e.Params
			p.Quick, p.Trials = true, 1
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(p, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- micro-benchmarks of the substrates ----

// BenchmarkStreamGenerate measures full-stream generation (VIRAT, 300k
// frames, 6 event types).
func BenchmarkStreamGenerate(b *testing.B) {
	g := mathx.NewRNG(1)
	for i := 0; i < b.N; i++ {
		video.Generate(video.VIRAT(), g)
	}
}

// BenchmarkLSTMForward measures the shared encoder (M=25, D=12, H=24).
func BenchmarkLSTMForward(b *testing.B) {
	g := mathx.NewRNG(1)
	l := nn.NewLSTM("l", 12, 24, g)
	seq := make([][]float64, 25)
	for i := range seq {
		seq[i] = make([]float64, 12)
		for j := range seq[i] {
			seq[i][j] = g.Normal(0, 1)
		}
	}
	p := l.Pack()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(seq, p)
	}
}

// BenchmarkDenseBackward measures one dense-layer backward pass (128x64,
// the trunk's shape class). Run with -benchmem: forward and backward reuse
// the layer's scratch buffers, so steady state allocates nothing.
func BenchmarkDenseBackward(b *testing.B) {
	g := mathx.NewRNG(1)
	d := nn.NewDense("d", 128, 64, g)
	x := make([]float64, 128)
	dy := make([]float64, 64)
	for i := range x {
		x[i] = g.Normal(0, 1)
	}
	for i := range dy {
		dy[i] = g.Normal(0, 1)
	}
	d.Forward(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Backward(dy)
	}
}

// BenchmarkTrainRecord measures one training step (forward + backward +
// loss) on a single record.
func BenchmarkTrainRecord(b *testing.B) {
	cfg := core.DefaultConfig(12, 25, 500, 1)
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := mathx.NewRNG(1)
	x := make([][]float64, 25)
	for i := range x {
		x[i] = make([]float64, 12)
		for j := range x[i] {
			x[i][j] = g.Float64()
		}
	}
	rec := dataset.Record{
		X:        x,
		Label:    []bool{true},
		OI:       []video.Interval{{Start: 100, End: 180}},
		Censored: []bool{false},
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 1
	recs := []dataset.Record{rec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(recs, tc); err != nil {
			b.Fatal(err)
		}
	}
}
