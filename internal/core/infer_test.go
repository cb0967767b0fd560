package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// vectorKernels is mathx's unexported switch between its AVX2 kernels and
// their scalar twins.
//
//go:linkname vectorKernels eventhit/internal/mathx.vector
var vectorKernels bool

// inferModel builds an untrained model whose three hidden widths are all
// w, and a random window for it.
func inferModel(t testing.TB, w int, seed int64) (*Model, [][]float64) {
	t.Helper()
	cfg := DefaultConfig(4, 7, 11, 3)
	cfg.HiddenLSTM, cfg.HiddenTrunk, cfg.HiddenHead, cfg.Seed = w, w, w, seed
	return inferModelOf(t, cfg)
}

// inferModelOf is inferModel for any configuration.
func inferModelOf(t testing.TB, cfg Config) (*Model, [][]float64) {
	t.Helper()
	seed := cfg.Seed
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(seed + 100)
	// Xavier leaves the biases at zero; make them count.
	for _, p := range m.params {
		for i := range p.W {
			p.W[i] += 0.1 * (g.Float64() - 0.5)
		}
	}
	return m, camera(g, cfg.Window, cfg.InputDim)
}

// refLogits is the training forward pass with dropout off and every logit
// computed, copied out of its tape: the values inference had before it was
// split.
func refLogits(m *Model, x [][]float64) [][]float64 {
	tp := m.newTape()
	tp.mask = nil
	m.forward(tp, x, nil, m.packs())
	out := make([][]float64, len(tp.out))
	for k := range tp.out {
		out[k] = mathx.Clone(tp.out[k])
	}
	return out
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTwoPhaseMatchesForward: for hidden widths on both sides of the
// four-row block, Exist and Theta reproduce the full forward pass bit for
// bit — whichever subset of heads Θ is asked for — and so do Logits and
// PredictInto. One Scratch serves every model in turn, so it is
// resized up and down across the widths.
func TestTwoPhaseMatchesForward(t *testing.T) {
	var sc Scratch
	for _, w := range []int{1, 3, 5, 24, 33} {
		t.Run(fmt.Sprintf("lstm/%d", w), func(t *testing.T) {
			m, x := inferModel(t, w, int64(w))
			cfg := m.Config()
			ref := refLogits(m, x)
			b := make([]float64, cfg.NumEvents)
			theta := make([]float64, cfg.Horizon)
			for subset := 0; subset < 1<<cfg.NumEvents; subset++ {
				m.Exist(x, 0, &sc, b)
				for k := range b {
					if want := mathx.Sigmoid(ref[k][0]); !bitsEqual(b[k], want) {
						t.Fatalf("subset %03b: b[%d] = %v, want %v", subset, k, b[k], want)
					}
				}
				// Highest head first: the order must not matter either.
				for k := cfg.NumEvents - 1; k >= 0; k-- {
					if subset&(1<<k) == 0 {
						continue
					}
					m.Theta(k, &sc, theta)
					for v := range theta {
						if want := mathx.Sigmoid(ref[k][1+v]); !bitsEqual(theta[v], want) {
							t.Fatalf("subset %03b: theta[%d][%d] = %v, want %v", subset, k, v, theta[v], want)
						}
					}
				}
			}
			for k, lk := range m.Logits(x) {
				for i := range lk {
					if !bitsEqual(lk[i], ref[k][i]) {
						t.Fatalf("Logits[%d][%d] = %v, want %v", k, i, lk[i], ref[k][i])
					}
				}
			}
			out := m.Predict(x)
			for k := range ref {
				if !bitsEqual(out.B[k], mathx.Sigmoid(ref[k][0])) {
					t.Fatalf("Predict B[%d] = %v", k, out.B[k])
				}
				for v := range out.Theta[k] {
					if !bitsEqual(out.Theta[k][v], mathx.Sigmoid(ref[k][1+v])) {
						t.Fatalf("Predict Theta[%d][%d] = %v", k, v, out.Theta[k][v])
					}
				}
			}
		})
	}
}

// TestScratchAcrossModels: a Scratch moves between a wide and a narrow
// model (what a hot swap does to a pooled scratch) without either seeing
// the other's leftovers, and Theta refuses a scratch whose last Exist ran
// on another model.
func TestScratchAcrossModels(t *testing.T) {
	wide, xw := inferModel(t, 33, 1)
	narrow, xn := inferModel(t, 3, 2)
	var sc Scratch
	for round := 0; round < 3; round++ {
		for _, c := range []struct {
			m *Model
			x [][]float64
		}{{wide, xw}, {narrow, xn}} {
			ref := refLogits(c.m, c.x)
			b := make([]float64, 3)
			theta := make([]float64, c.m.Config().Horizon)
			c.m.Exist(c.x, 0, &sc, b)
			c.m.Theta(1, &sc, theta)
			if !bitsEqual(b[1], mathx.Sigmoid(ref[1][0])) || !bitsEqual(theta[4], mathx.Sigmoid(ref[1][5])) {
				t.Fatalf("round %d: scratch reuse changed the output", round)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Theta accepted a scratch last used with another model")
		}
	}()
	wide.Theta(0, &sc, make([]float64, wide.Config().Horizon)) // sc last ran narrow
}

// TestConcurrentInferenceSharesModel: many goroutines predict through one
// Model, each with its own Scratch (run with -race), and all get the serial
// answer.
func TestConcurrentInferenceSharesModel(t *testing.T) {
	m, x := inferModel(t, 24, 5)
	ref := refLogits(m, x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			b := make([]float64, 3)
			theta := make([]float64, m.Config().Horizon)
			for i := 0; i < 50; i++ {
				m.Exist(x, 0, &sc, b)
				m.Theta(i%3, &sc, theta)
				if !bitsEqual(b[0], mathx.Sigmoid(ref[0][0])) || !bitsEqual(theta[0], mathx.Sigmoid(ref[i%3][1])) {
					t.Error("concurrent inference differs from the serial forward pass")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// outputBits is every existence score and every θ of m on window x,
// through sc under frame number frame.
func outputBits(m *Model, x [][]float64, frame int, sc *Scratch) []uint64 {
	cfg := m.Config()
	b, theta := make([]float64, cfg.NumEvents), make([]float64, cfg.Horizon)
	m.Exist(x, frame, sc, b)
	var out []uint64
	for k := range b {
		out = append(out, math.Float64bits(b[k]))
		m.Theta(k, sc, theta)
		for _, v := range theta {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func sameOutputs(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: output %d is %v, want %v", what, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestPackedWhFollowsWeights: the packs a Model keeps — the LSTM's pair and
// every Dense layer's — cannot go stale. A model that predicted, then
// trained, predicts what a Clone of its new weights (packed afresh)
// predicts, on the frameless and the stream path; so does a model whose
// current pack is the one training repacked in place after a step, which
// the trainer takes back when it stops; and a model saved and loaded
// decides bit-identically to the one saved.
func TestPackedWhFollowsWeights(t *testing.T) {
	m, x := inferModel(t, 24, 8)
	const frame = 50
	var sc Scratch
	before := outputBits(m, x, 0, &sc)
	outputBits(m, x, frame, &sc)
	recs := make([]dataset.Record, 8)
	for i := range recs {
		recs[i] = dataset.Record{X: x, Label: []bool{true, false, i%2 == 0},
			OI: []video.Interval{{Start: 2, End: 5}, {}, {Start: 1, End: 3}}, Censored: make([]bool, 3)}
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	if _, err := m.Train(recs, tc); err != nil {
		t.Fatal(err)
	}
	want := outputBits(m.Clone(), x, 0, new(Scratch))
	if got := outputBits(m, x, 0, &sc); slices.Equal(got, before) {
		t.Fatal("training changed no output: the test cannot see a stale Wh")
	}
	sameOutputs(t, "frameless, after Train", outputBits(m, x, 0, &sc), want)
	sameOutputs(t, "stream, after Train", outputBits(m, x, frame, &sc), want)

	// Step by step: after each optimizer step the trainer repacks its own
	// pack in place and publishes it, and inference reads that pack.
	tr := m.newTrainer(recs, tc)
	for step := 0; step < 3; step++ {
		tr.minibatch([]int{0, 1, 2, 3, 4, 5, 6, 7})
		tr.pack()
		if m.packed.Load() != tr.own {
			t.Fatalf("step %d: the trainer's repacked weights are not the model's pack", step)
		}
		want := outputBits(m.Clone(), x, 0, new(Scratch))
		sameOutputs(t, fmt.Sprintf("frameless, through the trainer's pack after step %d", step), outputBits(m, x, 0, &sc), want)
		sameOutputs(t, fmt.Sprintf("stream, through the trainer's pack after step %d", step), outputBits(m, x, frame, &sc), want)
	}
	tr.stop()
	if m.packed.Load() != nil {
		t.Fatal("the stopped trainer's pack is still the model's: the next Train call would repack it under another model")
	}
	want = outputBits(m.Clone(), x, 0, new(Scratch))

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "loaded", outputBits(loaded, x, frame, new(Scratch)), want)
}

// TestQuantTwoPhaseMatchesPredict: the fixed-point twin's Exist/Theta equal
// its own full pass exactly, for every subset of heads, through the frame
// path the strategies use.
func TestQuantTwoPhaseMatchesPredict(t *testing.T) {
	m, x := inferModel(t, 24, 7)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Predict(x)
	b := make([]float64, 3)
	theta := make([]float64, m.Config().Horizon)
	for subset := 0; subset < 8; subset++ {
		q.Exist(x, 40+subset, nil, b)
		for k := range b {
			if b[k] != want.B[k] {
				t.Fatalf("subset %03b: b[%d] = %v, want %v", subset, k, b[k], want.B[k])
			}
			if subset&(1<<k) == 0 {
				continue
			}
			q.Theta(k, nil, theta)
			for v := range theta {
				if theta[v] != want.Theta[k][v] {
					t.Fatalf("subset %03b: theta[%d][%d] = %v, want %v", subset, k, v, theta[v], want.Theta[k][v])
				}
			}
		}
	}
}

// BenchmarkInference times the float kernel at the TA9 serving shape: the
// full pass, existence only, and existence plus one head's Θ; and, on both
// kernel paths, the Dense layers alone: the trunk, then per head fc1 and
// all 1+H rows of fc2, as a full pass runs them.
func BenchmarkInference(b *testing.B) {
	m, err := New(DefaultConfig(12, 25, 500, 3))
	if err != nil {
		b.Fatal(err)
	}
	g := mathx.NewRNG(3)
	x := make([][]float64, 25)
	for i := range x {
		x[i] = make([]float64, 12)
		for j := range x[i] {
			x[i][j] = g.Float64()
		}
	}
	var out Output
	var sc Scratch
	scores, theta := make([]float64, 3), make([]float64, 500)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.PredictInto(x, &out)
		}
	})
	// exist and exist-stream on both kernel paths: "scalar" is the path
	// every CPU without AVX2 and FMA takes.
	saved := vectorKernels
	defer func() { vectorKernels = saved }()
	cam := camera(g, 1024, 12)
	for _, vector := range []bool{true, false} {
		if vector && !saved {
			continue
		}
		path := map[bool]string{true: "vector", false: "scalar"}[vector]
		vectorKernels = vector
		p := m.packs()
		z, zcat, hid, logits := make([]float64, 24), make([]float64, 36), make([]float64, 32), make([]float64, 501)
		copy(zcat, x[0])
		copy(zcat[12:], x[1])
		copy(zcat[24:], x[24])
		b.Run("dense/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.trunk.ApplyRows(z, zcat[:24], 0, &p.trunk)
				for k, hd := range m.heads {
					hd.fc1.ApplyRows(hid, zcat, 0, &p.fc1[k])
					hd.fc2.ApplyRows(logits, hid, 0, &p.fc2[k])
				}
			}
		})
		b.Run("exist/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Exist(x, 0, &sc, scores)
			}
		})
		// A stride-1 stream under its frame numbers: 24 of 25 input
		// projections come from the scratch's ring.
		stream := make([][]float64, 25)
		b.Run("exist-stream/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range stream {
					stream[j] = cam[(i+j)%len(cam)]
				}
				m.Exist(stream, 25+i, &sc, scores)
			}
		})
	}
	vectorKernels = saved
	b.Run("exist+theta1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Exist(x, 0, &sc, scores)
			m.Theta(1, &sc, theta)
		}
	})
}
