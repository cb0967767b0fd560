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

// PackedDense is a copy of rows [out%4, out) of a Dense layer's W in
// mathx.PackRows4's layout, the form ApplyRows reads them in; the first
// out%4 rows are read row-major from the layer. Packing from the end keeps
// the rows after a layer's first out%4 on whole four-row blocks: an
// EventHit head's 1+H output rows, with H a multiple of four, pack Θ's H
// rows and leave b_k's. It is a snapshot: after the weights change, Pack
// again.
type PackedDense struct{ wp []float64 }

// NewDense returns a Dense layer with Xavier-initialized weights (zero
// when g is nil) and zero biases. name must be unique within a model (it
// prefixes the parameter names used for serialization).
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

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// PackInto packs the layer's current weights into p, reusing its memory.
func (d *Dense) PackInto(p *PackedDense) {
	p.wp = mathx.PackRows4(p.wp, d.w.W[d.out%4*d.in:], d.in)
}

// PackRowsInto packs the current weights of rows [lo, hi) into p, which a
// PackInto of this layer sized, and leaves p's other rows as they are. The
// first out%4 rows are not packed; past them lo and hi must sit on block
// edges, out%4 plus a multiple of four (or out). Calls on disjoint ranges
// may run concurrently, and over every row they equal one PackInto.
func (d *Dense) PackRowsInto(p *PackedDense, lo, hi int) {
	n, r0 := d.in, d.out%4
	lo = max(lo, r0)
	if (lo-r0)%4 != 0 || (hi-r0)%4 != 0 || hi > d.out {
		panic(fmt.Sprintf("nn: Dense %s PackRowsInto [%d, %d) is not on blocks from row %d", d.w.Name, lo, hi, r0))
	}
	if lo < hi {
		mathx.PackRows4(p.wp[(lo-r0)*n:(hi-r0)*n], d.w.W[lo*n:hi*n], n)
	}
}

// ApplyRows computes output rows [lo, lo+len(y)) of W*x + b into y over p,
// which must be Pack() of the current weights. Each row is mathx.Dot of its
// weight row and x, plus its bias, bit for bit: the rows on whole packed
// blocks in one mathx.MatVecPacked that adds the biases as it stores, the
// others (the first out%4, and the ends of a range that cuts a block) one
// Dot each. It reads the weights and p and writes only y, so any number of
// goroutines may run it on one layer at once; training and inference share
// this arithmetic, and each row is the same whichever rows are asked for.
func (d *Dense) ApplyRows(y, x []float64, lo int, p *PackedDense) {
	if len(x) != d.in {
		panic(fmt.Sprintf("nn: Dense %s input %d, want %d", d.w.Name, len(x), d.in))
	}
	n, r0, hi := d.in, d.out%4, lo+len(y)
	// Rows [a, b) are the whole packed blocks in [lo, hi); &^3 rounds a
	// negative count down too.
	a := min(hi, r0+(max(lo-r0, 0)+3)&^3)
	b := max(a, r0+(hi-r0)&^3)
	row := func(r int) { y[r-lo] = mathx.Dot(d.w.W[r*n:(r+1)*n], x) + d.b.W[r] }
	for r := lo; r < a; r++ {
		row(r)
	}
	if a < b {
		mathx.MatVecPacked(y[a-lo:b-lo], p.wp[(a-r0)*n:(b-r0)*n], x, nil, d.b.W[a:b])
	}
	for r := b; r < hi; r++ {
		row(r)
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
