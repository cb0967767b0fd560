package nn

import (
	"fmt"

	"eventhit/internal/mathx"
)

// Dense is a fully connected layer computing y = W*x + b with W of shape
// out x in (row-major).
type Dense struct {
	in, out int
	w, b    *Param
	x       []float64 // cached input from the last Forward
	y       []float64 // output buffer, reused across Forward calls
	dx      []float64 // scratch for Backward
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
		y:   make([]float64, out),
		dx:  make([]float64, in),
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

// Forward computes W*x + b and caches x for Backward. The returned slice
// is reused by the next Forward; copy it if it must survive that call.
func (d *Dense) Forward(x []float64) []float64 {
	d.ApplyRows(d.y, x, 0)
	d.x = x
	return d.y
}

// ApplyRows computes output rows [lo, lo+len(y)) of W*x + b into y. It
// reads the weights and writes only y, so any number of goroutines may run
// it on one layer at once; Forward is ApplyRows over all rows plus the
// cache Backward needs, so training and inference share one arithmetic.
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

// Backward accumulates dL/dW and dL/db from dy (= dL/dy) and returns
// dL/dx. The returned slice is reused across calls; copy it if it must
// survive the next Backward.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.out {
		panic(fmt.Sprintf("nn: Dense %s grad %d, want %d", d.w.Name, len(dy), d.out))
	}
	mathx.Fill(d.dx, 0)
	mathx.BackRows(d.w.G, d.w.W, dy, d.x, d.dx)
	addBiasGrad(d.b.G, dy)
	return d.dx
}
