package nn

import (
	"fmt"

	"eventhit/internal/mathx"
)

// Conv1D is a temporal convolution over a covariate window: out channels
// of kernel width K slide over the T x D input with same-padding, followed
// by global average pooling over time — the light-weight encoder family
// specialized video filters (NoScope-style) use, offered here as the third
// encoder option of EventHit's ablation (LSTM / GRU / conv / mean).
type Conv1D struct {
	in, out, kernel int
	w               *Param // out x kernel x in, row-major
	b               *Param // out

	xs     [][]float64 // cached input sequence
	padded int         // cached T for Backward
	y      []float64   // output buffer, reused across Forward calls
}

// NewConv1D returns a same-padded temporal convolution with Xavier-
// initialized kernels. kernel must be odd so the padding is symmetric.
func NewConv1D(name string, in, out, kernel int, g *mathx.RNG) *Conv1D {
	if kernel%2 == 0 || kernel <= 0 {
		panic(fmt.Sprintf("nn: Conv1D kernel %d must be positive odd", kernel))
	}
	c := &Conv1D{
		in: in, out: out, kernel: kernel,
		w: NewParam(name+".w", out*kernel*in),
		b: NewParam(name+".b", out),
		y: make([]float64, out),
	}
	XavierInit(c.w.W, in*kernel, out, g)
	return c
}

// In returns the input channel count.
func (c *Conv1D) In() int { return c.in }

// Out returns the output channel count.
func (c *Conv1D) Out() int { return c.out }

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// at returns xs[t][d] with zero padding outside the sequence.
func (c *Conv1D) at(t, d int) float64 {
	if t < 0 || t >= len(c.xs) {
		return 0
	}
	return c.xs[t][d]
}

// Forward convolves the sequence and mean-pools over time, returning an
// out-width vector. The returned slice is reused by the next Forward; copy
// it if it must survive that call.
func (c *Conv1D) Forward(xs [][]float64) []float64 {
	if c.y == nil { // models loaded from gob predate the scratch field
		c.y = make([]float64, c.out)
	}
	c.Infer(xs, c.y)
	c.xs = xs
	c.padded = len(xs)
	return c.y
}

// Infer is Forward for inference: it reads the kernels and writes only y
// (len Out), caching nothing for a Backward, so concurrent callers with
// their own y may share one layer.
func (c *Conv1D) Infer(xs [][]float64, y []float64) {
	if len(xs) == 0 {
		panic("nn: Conv1D forward on empty sequence")
	}
	for _, x := range xs {
		if len(x) != c.in {
			panic(fmt.Sprintf("nn: Conv1D %s input width %d, want %d", c.w.Name, len(x), c.in))
		}
	}
	half := c.kernel / 2
	for o := 0; o < c.out; o++ {
		var sum float64
		for t := 0; t < len(xs); t++ {
			acc := c.b.W[o]
			for k := 0; k < c.kernel; k++ {
				row := c.w.W[(o*c.kernel+k)*c.in : (o*c.kernel+k+1)*c.in]
				tt := t + k - half
				if tt < 0 || tt >= len(xs) {
					continue
				}
				acc += mathx.Dot(row, xs[tt])
			}
			// ReLU per time step before pooling keeps the encoder nonlinear.
			if acc > 0 {
				sum += acc
			}
		}
		y[o] = sum / float64(len(xs))
	}
}

// Backward accumulates kernel gradients from the pooled-output gradient
// dy; input gradients are not returned (the inputs are data).
func (c *Conv1D) Backward(dy []float64) {
	if len(dy) != c.out {
		panic(fmt.Sprintf("nn: Conv1D %s grad width %d, want %d", c.w.Name, len(dy), c.out))
	}
	T := c.padded
	half := c.kernel / 2
	for o := 0; o < c.out; o++ {
		g := dy[o] / float64(T)
		if g == 0 {
			continue
		}
		for t := 0; t < T; t++ {
			// recompute the pre-activation to evaluate the ReLU gate
			acc := c.b.W[o]
			for k := 0; k < c.kernel; k++ {
				row := c.w.W[(o*c.kernel+k)*c.in : (o*c.kernel+k+1)*c.in]
				tt := t + k - half
				if tt < 0 || tt >= T {
					continue
				}
				acc += mathx.Dot(row, c.xs[tt])
			}
			if acc <= 0 {
				continue
			}
			for k := 0; k < c.kernel; k++ {
				tt := t + k - half
				if tt < 0 || tt >= T {
					continue
				}
				grow := c.w.G[(o*c.kernel+k)*c.in : (o*c.kernel+k+1)*c.in]
				for d := 0; d < c.in; d++ {
					grow[d] += g * c.xs[tt][d]
				}
			}
			c.b.G[o] += g
		}
	}
}
