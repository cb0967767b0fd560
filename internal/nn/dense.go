package nn

import (
	"fmt"

	"eventhit/internal/mathx"
)

// Dense is a fully connected layer computing y = W*x + b with W of shape
// out x in (row-major). It holds only its parameters: ApplyRows and
// Backward read the weights and write the caller's buffers, and
// AccumulateGrads sums a batch's parameter gradients.
type Dense struct {
	in, out int
	w, b    *Param
}

// NewDense returns a Dense layer with Xavier-initialized weights and zero
// biases. name must be unique within a model (it prefixes the parameter
// names used for serialization).
func NewDense(name string, in, out int, g *mathx.RNG) *Dense {
	d := &Dense{
		in:  in,
		out: out,
		w:   NewParam(name+".w", in*out),
		b:   NewParam(name+".b", out),
	}
	XavierInit(d.w.W, in, out, g)
	return d
}

// In returns the input width.
func (d *Dense) In() int { return d.in }

// Out returns the output width.
func (d *Dense) Out() int { return d.out }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ApplyRows computes output rows [lo, lo+len(y)) of W*x + b into y. It
// reads the weights and writes only y, so any number of goroutines may run
// it on one layer at once; training and inference share this arithmetic,
// and each row is the same whichever rows are asked for.
func (d *Dense) ApplyRows(y, x []float64, lo int) {
	if len(x) != d.in {
		panic(fmt.Sprintf("nn: Dense %s input %d, want %d", d.w.Name, len(x), d.in))
	}
	hi := lo + len(y)
	mathx.MatVec(y, d.w.W[lo*d.in:hi*d.in], x)
	for i, b := range d.b.W[lo:hi] {
		y[i] += b
	}
}

// Backward writes dL/dx into dx given dy = dL/dy. It reads the weights
// and writes only dx.
func (d *Dense) Backward(dx, dy []float64) {
	if len(dy) != d.out || len(dx) != d.in {
		panic(fmt.Sprintf("nn: Dense %s grad %d, dx %d, want %d and %d", d.w.Name, len(dy), len(dx), d.out, d.in))
	}
	mathx.Fill(dx, 0)
	mathx.BackRowsX(d.w.W, dy, dx)
}

// AccumulateGrads adds to rows [lo, hi) of dL/dW and dL/db the gradients of
// the listed (dy, x) pairs: each element takes the pairs' products in list
// order, zero entries of dy skipped, so calls on disjoint row ranges may
// run concurrently and together equal one call over every row.
func (d *Dense) AccumulateGrads(dys, xs [][]float64, lo, hi int) {
	mathx.BackRowsG(d.w.G[lo*d.in:hi*d.in], lo, dys, xs)
	for _, dy := range dys {
		addBiasGrad(d.b.G[lo:hi], dy[lo:hi])
	}
}
