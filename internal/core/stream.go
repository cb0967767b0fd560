package core

import (
	"math"

	"eventhit/internal/nn"
)

// projRing is the per-stream cache of the LSTM encoder's input projections
// Wx·x_t: slot f mod M holds stream frame f's row and its projection. A
// stride-1 stream presents every frame in M consecutive windows, so M-1 of
// a window's M projections are already here. A slot is used only when its
// frame number AND every bit of its row match what the caller presents (the
// rule nn.QuantLSTM's ring follows): a wrong or reused frame number costs a
// recomputation, never a result.
type projRing struct {
	// m and version name the weights the entries were projected with; any
	// other model, or the same one trained since, starts the ring over.
	m       *Model
	version int

	frames []int       // per slot: the stream frame cached, noFrame if none
	rows   []float64   // per slot: the D covariates the projection was computed from
	ax     []float64   // per slot: Wx·x_t, 4·HiddenLSTM floats
	axs    [][]float64 // the current window's slots in row order, for InferProjected
}

const noFrame = math.MinInt

// reset empties the ring for m. Each array keeps its memory when it is
// large enough, so models alternating on one Scratch stop allocating once
// every array has seen its largest use.
func (r *projRing) reset(m *Model) {
	M, D, G := m.cfg.Window, m.cfg.InputDim, 4*m.cfg.HiddenLSTM
	if cap(r.frames) < M {
		r.frames, r.axs = make([]int, M), make([][]float64, M)
	}
	if cap(r.rows) < M*D {
		r.rows = make([]float64, M*D)
	}
	if cap(r.ax) < M*G {
		r.ax = make([]float64, M*G)
	}
	r.frames, r.rows, r.ax, r.axs = r.frames[:M], r.rows[:M*D], r.ax[:M*G], r.axs[:M]
	for i := range r.frames {
		r.frames[i] = noFrame
	}
	r.m, r.version = m, m.version
}

// project returns the input projections of window x, whose last row is
// stream frame `frame`, computing only those the ring does not hold over p,
// m's LSTM packed under the current version.
func (r *projRing) project(m *Model, x [][]float64, frame int, p *nn.Packed) [][]float64 {
	if r.m != m || r.version != m.version {
		r.reset(m)
	}
	M, D, G := len(x), m.cfg.InputDim, 4*m.cfg.HiddenLSTM
	slot := (frame - M + 1) % M
	if slot < 0 {
		slot += M
	}
	for i, row := range x {
		f := frame - M + 1 + i
		kept, ax := r.rows[slot*D:(slot+1)*D], r.ax[slot*G:(slot+1)*G]
		if r.frames[slot] != f || !sameBits(kept, row) {
			m.lstm.Project(ax, row, p) // panics on a row of the wrong width before anything is cached
			copy(kept, row)
			r.frames[slot] = f
		}
		r.axs[i] = ax
		if slot++; slot == M {
			slot = 0
		}
	}
	return r.axs
}

// sameBits reports whether a and b hold the same float64 bit patterns, so
// +0 and -0 differ and a NaN equals itself.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
