package core

import (
	"fmt"
	"math"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// camera is n random covariate rows of width d: a stream whose index is
// its frame number.
func camera(g *mathx.RNG, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = g.Float64()*2 - 1
		}
	}
	return rows
}

// sameAsFresh runs m on window x twice — through the kept scratch sc under
// frame number `frame`, and through a fresh scratch with no frame identity,
// which is the full recomputation — and requires every existence score and
// every θ to agree bit for bit.
func sameAsFresh(t *testing.T, what string, m *Model, x [][]float64, frame int, sc *Scratch) {
	t.Helper()
	cfg := m.Config()
	var fresh Scratch
	want, got := make([]float64, cfg.NumEvents), make([]float64, cfg.NumEvents)
	wantT, gotT := make([]float64, cfg.Horizon), make([]float64, cfg.Horizon)
	m.Exist(x, 0, &fresh, want)
	m.Exist(x, frame, sc, got)
	for k := range want {
		if !bitsEqual(got[k], want[k]) {
			t.Fatalf("%s, frame %d: b[%d] = %v through the kept scratch, %v fresh", what, frame, k, got[k], want[k])
		}
		m.Theta(k, &fresh, wantT)
		m.Theta(k, sc, gotT)
		for v := range wantT {
			if !bitsEqual(gotT[v], wantT[v]) {
				t.Fatalf("%s, frame %d: theta[%d][%d] = %v through the kept scratch, %v fresh", what, frame, k, v, gotT[v], wantT[v])
			}
		}
	}
}

// TestStreamRingMatchesFreshScratch drives one Scratch through every way a
// caller can present windows and frame numbers — in step with the stream,
// skipping, jumping back, lying — and requires the output of each to be
// what a fresh scratch computes: the ring can only change wall-clock.
func TestStreamRingMatchesFreshScratch(t *testing.T) {
	m, _ := inferModel(t, 24, 3)
	M, D := m.Config().Window, m.Config().InputDim
	g := mathx.NewRNG(9)
	cam, other := camera(g, 300, D), camera(g, 300, D)
	win := func(src [][]float64, end int) [][]float64 { return src[end-M+1 : end+1] }
	var sc Scratch

	end := 40
	for i := 0; i < 3*M; i++ {
		sameAsFresh(t, "stride 1", m, win(cam, end), end, &sc)
		end++
	}
	for i := 0; i < M; i++ {
		end += 2
		sameAsFresh(t, "stride 2", m, win(cam, end), end, &sc)
	}
	for i := 0; i < 4; i++ {
		end += M
		sameAsFresh(t, "stride M", m, win(cam, end), end, &sc)
	}
	end -= 2*M + 3
	sameAsFresh(t, "jump back", m, win(cam, end), end, &sc)
	for i := 0; i < M; i++ {
		end++
		sameAsFresh(t, "stride 1 after the jump", m, win(cam, end), end, &sc)
	}
	sameAsFresh(t, "frame numbers reused by another camera", m, win(other, end), end, &sc)
	sameAsFresh(t, "and by the first again", m, win(cam, end), end, &sc)
	sameAsFresh(t, "same rows, numbering off by one", m, win(cam, end), end+1, &sc)
	sameAsFresh(t, "same rows, numbering off by a window", m, win(cam, end), end+M, &sc)

	// +0 and -0 are different rows: Wx·x may differ in a zero's sign.
	zeroed := make([][]float64, M)
	for i, row := range win(cam, end) {
		zeroed[i] = mathx.Clone(row)
	}
	for _, z := range []float64{0, math.Copysign(0, -1), 0} {
		zeroed[2][1], zeroed[M-1][0] = z, z
		sameAsFresh(t, fmt.Sprintf("zero with sign bit %v", math.Signbit(z)), m, zeroed, end, &sc)
	}

	for _, frame := range []int{0, -1, -M, math.MinInt} {
		sameAsFresh(t, "no frame identity", m, win(cam, end), frame, &sc)
	}
	// A young stream: the window's first rows carry frame numbers <= 0.
	for frame := 1; frame < 2*M; frame++ {
		sameAsFresh(t, "young stream", m, win(cam, 100+frame), frame, &sc)
	}
	sameAsFresh(t, "largest frame number", m, win(cam, end), math.MaxInt, &sc)
}

// TestStreamRingIsLive: the test above would pass on a ring that never
// hits. A corrupted projection of a frame the next window shares must show
// in that window's output, and a fresh scratch must not see it.
func TestStreamRingIsLive(t *testing.T) {
	m, _ := inferModel(t, 24, 3)
	cfg := m.Config()
	M := cfg.Window
	cam := camera(mathx.NewRNG(10), 60, cfg.InputDim)
	var sc, fresh Scratch
	got, want := make([]float64, cfg.NumEvents), make([]float64, cfg.NumEvents)
	m.Exist(cam[30-M+1:31], 30, &sc, got)
	for i := range sc.ring.ax {
		sc.ring.ax[i] += 0.5
	}
	m.Exist(cam[31-M+1:32], 31, &sc, got)
	m.Exist(cam[31-M+1:32], 0, &fresh, want)
	if bitsEqual(got[0], want[0]) && bitsEqual(got[1], want[1]) && bitsEqual(got[2], want[2]) {
		t.Fatal("corrupting the kept projections changed nothing: the ring is not read")
	}
	// The one frame the second window added was projected after the
	// corruption: a window of M new frames is clean again.
	sameAsFresh(t, "after M new frames", m, cam[50-M+1:51], 50, &sc)
}

// TestStreamRingAcrossModels: two models of unlike geometry — each larger
// than the other in one of the ring's arrays — alternate on one Scratch
// (cascade rungs on a pooled scratch, a hot swap mid-stream). Neither sees
// the other's projections, a retrained model does not see its own from
// before, and after the first round nothing is allocated.
func TestStreamRingAcrossModels(t *testing.T) {
	long := DefaultConfig(3, 9, 11, 3)
	long.HiddenLSTM, long.Seed = 2, 21
	wide := DefaultConfig(5, 4, 11, 3)
	wide.HiddenLSTM, wide.Seed = 33, 22
	type stream struct {
		m   *Model
		cam [][]float64
		end int
	}
	var streams []*stream
	for _, cfg := range []Config{long, wide} {
		m, _ := inferModelOf(t, cfg)
		streams = append(streams, &stream{m: m, cam: camera(mathx.NewRNG(cfg.Seed), 200, cfg.InputDim), end: 20})
	}
	window := func(s *stream) [][]float64 { return s.cam[s.end-s.m.cfg.Window+1 : s.end+1] }
	var sc Scratch
	for round := 0; round < 3; round++ {
		for _, s := range streams {
			for i := 0; i < 3; i++ {
				s.end++
				sameAsFresh(t, fmt.Sprintf("round %d", round), s.m, window(s), s.end, &sc)
			}
		}
	}
	b := make([]float64, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, s := range streams {
			s.m.Exist(window(s), s.end, &sc, b)
		}
	}); allocs != 0 {
		t.Errorf("alternating models allocate %v times per round after warm-up, want 0", allocs)
	}

	s := streams[0]
	g := mathx.NewRNG(23)
	recs := make([]dataset.Record, 8)
	for i := range recs {
		recs[i] = dataset.Record{X: window(s), Label: []bool{true, false, g.Float64() < 0.5},
			OI: []video.Interval{{Start: 2, End: 5}, {}, {Start: 1, End: 3}}, Censored: make([]bool, 3)}
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	sameAsFresh(t, "before training", s.m, window(s), s.end, &sc)
	if _, err := s.m.Train(recs, tc); err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, "same window after training", s.m, window(s), s.end, &sc)
}
