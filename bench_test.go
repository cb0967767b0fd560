package eventhit_test

// One benchmark per registry experiment (reduced sizes), plus on-demand
// micro-benchmarks of the hot components. Run:
//
//	go test -bench=. -benchmem -benchtime=1x
//	go test -bench='Experiments/fig5$' -benchtime=1x
//
// Nothing gates on these numbers: wall-clock claims are made on bench/
// (BENCHMARK.json), whose protocol normalizes for this machine's drift.

import (
	"io"
	"runtime"
	"testing"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/nn"
	"eventhit/internal/strategy"
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

// BenchmarkBuildRecord measures covariate extraction + labeling for one
// record (M=25, D=21).
func BenchmarkBuildRecord(b *testing.B) {
	st := video.Generate(video.VIRAT(), mathx.NewRNG(1))
	ex, err := features.NewExtractor(st, []int{0, 4, 5}, features.DefaultDetector(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.Config{Window: 25, Horizon: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.BuildRecord(ex, 1000+(i%1000), cfg); err != nil {
			b.Fatal(err)
		}
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(seq)
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

// benchTrainSet builds a small training problem shared by the serial and
// parallel training benchmarks.
func benchTrainSet(b *testing.B) (core.Config, []dataset.Record) {
	b.Helper()
	cfg := core.DefaultConfig(12, 25, 200, 1)
	g := mathx.NewRNG(1)
	recs := make([]dataset.Record, 64)
	for r := range recs {
		x := make([][]float64, 25)
		for i := range x {
			x[i] = make([]float64, 12)
			for j := range x[i] {
				x[i][j] = g.Float64()
			}
		}
		recs[r] = dataset.Record{
			X:        x,
			Label:    []bool{r%2 == 0},
			OI:       []video.Interval{{Start: 50 + r, End: 120 + r}},
			Censored: []bool{false},
		}
	}
	return cfg, recs
}

// benchTrain times one epoch over the shared training set at the given
// Parallelism (0 = the serial loop). On a multicore machine the parallel
// variant's ns/op should drop roughly with the worker count; the results
// themselves are identical for every Parallelism >= 1.
func benchTrain(b *testing.B, parallelism int) {
	b.Helper()
	cfg, recs := benchTrainSet(b)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 16
	tc.Parallelism = parallelism
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(recs, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSerial is one epoch with the original serial loop.
func BenchmarkTrainSerial(b *testing.B) { benchTrain(b, 0) }

// BenchmarkTrainParallel is the same epoch with the data-parallel engine
// at GOMAXPROCS workers.
func BenchmarkTrainParallel(b *testing.B) { benchTrain(b, runtime.GOMAXPROCS(0)) }

// BenchmarkModelPredict measures one full EventHit inference (the
// per-horizon cost the paper reports as negligible, §VI.H).
func BenchmarkModelPredict(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
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

// BenchmarkConformalPValue measures one C-CLASSIFY p-value lookup.
func BenchmarkConformalPValue(b *testing.B) {
	g := mathx.NewRNG(1)
	n := 500
	calibB := make([][]float64, n)
	calibL := make([][]bool, n)
	for i := range calibB {
		calibB[i] = []float64{g.Float64()}
		calibL[i] = []bool{g.Bernoulli(0.4)}
	}
	calibL[0][0] = true
	c, err := conformal.NewClassifier(calibB, calibL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PValue(0, g.Float64())
	}
}

// BenchmarkCoxFit measures fitting the Cox baseline on 300 records.
func BenchmarkCoxFit(b *testing.B) {
	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
	if err != nil {
		b.Fatal(err)
	}
	splits, err := dataset.Build(ex, dataset.SampleConfig{
		Config: dataset.Config{Window: 10, Horizon: 200},
		NTrain: 300, NCCalib: 1, NRCalib: 1, NTest: 1,
		TrainPosFrac: 0.5,
	}, mathx.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.FitCox(splits.Train, 200, 0.5, strategy.DefaultCoxConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- predict fast path (see DESIGN.md "Predict fast path") ----

// predictFixture builds an untrained but calibrated EventHit setup over a
// real generated stream, shared by the hot-path benchmarks. Training is
// irrelevant to wall-clock shape, so it is skipped.
func predictFixture(b *testing.B) (*features.Extractor, *strategy.Bundle, dataset.Config) {
	b.Helper()
	st := video.Generate(video.VIRAT(), mathx.NewRNG(1))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.Config{Window: 25, Horizon: 500}
	splits, err := dataset.Build(ex, dataset.SampleConfig{
		Config: cfg,
		NTrain: 1, NCCalib: 60, NRCalib: 60, NTest: 1,
		TrainPosFrac: 0.5,
	}, mathx.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1))
	if err != nil {
		b.Fatal(err)
	}
	bundle, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
	if err != nil {
		b.Fatal(err)
	}
	return ex, bundle, cfg
}

// benchPredictHot times the full per-frame step of the live regime —
// assemble the stride-1 sliding window, predict, decode — on one of the
// four path configurations, and asserts the path's steady-state allocation
// ceiling (the returned Prediction and the decode's occurrence slice are
// the only allowed per-step allocations; windows and logits must come from
// reused buffers on the incremental/scratch paths).
func benchPredictHot(b *testing.B, quantized, incremental bool, maxAllocs float64) {
	b.Helper()
	ex, bundle, cfg := predictFixture(b)
	var src dataset.Source = ex
	if incremental {
		cs, err := features.NewCachedSource(ex)
		if err != nil {
			b.Fatal(err)
		}
		src = cs
	}
	strat := bundle.EHCR(0.9, 0.9)
	if quantized {
		q, err := strat.(strategy.Quantizable).Quantized()
		if err != nil {
			b.Fatal(err)
		}
		strat = q
	}
	start := cfg.Window - 1
	step := func(t int) metrics.Prediction {
		x, err := src.Covariates(t, cfg.Window)
		if err != nil {
			b.Fatal(err)
		}
		return strat.Predict(dataset.Record{Frame: t, X: x})
	}
	step(start) // warm caches and scratch
	t := start + 1
	if allocs := testing.AllocsPerRun(20, func() {
		step(t)
		t++
	}); allocs > maxAllocs {
		b.Fatalf("predict hot step: %.0f allocs/op, want <= %.0f", allocs, maxAllocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(start + 1 + (t-start+i)%30_000)
	}
}

// BenchmarkPredictHotFloat is the seed float path: full window
// re-extraction plus float LSTM inference. Its ceiling admits the window
// matrix and row allocations the fast paths eliminate.
func BenchmarkPredictHotFloat(b *testing.B) { benchPredictHot(b, false, false, 40) }

// BenchmarkPredictHotQuant swaps in the int16 fixed-point model.
func BenchmarkPredictHotQuant(b *testing.B) { benchPredictHot(b, true, false, 40) }

// BenchmarkPredictHotIncremental keeps the float model but assembles
// windows from the per-stream ring buffer (O(1) new-frame work).
func BenchmarkPredictHotIncremental(b *testing.B) { benchPredictHot(b, false, true, 8) }

// BenchmarkPredictHotFast is the shipping fast path: quantized inference
// over incrementally assembled windows.
func BenchmarkPredictHotFast(b *testing.B) { benchPredictHot(b, true, true, 8) }

// BenchmarkWindowAssemblyRecompute measures O(W) window re-extraction —
// what the seed path pays per frame advance.
func BenchmarkWindowAssemblyRecompute(b *testing.B) {
	ex, _, cfg := predictFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Covariates(cfg.Window-1+i%30_000, cfg.Window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowAssemblyIncremental measures the ring buffer's O(1)
// frame advance via the zero-allocation WindowCache.Window fast path,
// asserting the zero-alloc invariant.
func BenchmarkWindowAssemblyIncremental(b *testing.B) {
	ex, _, cfg := predictFixture(b)
	cache := features.NewWindowCache(ex, cfg.Window)
	dst := make([][]float64, 0, cfg.Window)
	window := func(t int) {
		var err error
		dst, err = cache.Window(t, cfg.Window, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	window(cfg.Window - 1) // warm
	t := cfg.Window
	if allocs := testing.AllocsPerRun(20, func() {
		window(t)
		t++
	}); allocs > 0 {
		b.Fatalf("incremental window assembly: %.0f allocs/op, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(cfg.Window - 1 + i%30_000)
	}
}
