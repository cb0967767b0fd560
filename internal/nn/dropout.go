package nn

import "eventhit/internal/mathx"

// Dropout is inverted dropout: at training time each unit is zeroed with
// probability p and survivors are scaled by 1/(1-p), so inference needs no
// rescaling. Outside training mode it is the identity.
type Dropout struct {
	p     float64
	train bool
	g     *mathx.RNG
	mask  []float64
	y     []float64 // output buffer, reused across training Forward calls
}

// NewDropout returns a dropout layer with drop probability p in [0, 1).
func NewDropout(p float64, g *mathx.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{p: p, g: g}
}

// SetTraining toggles training mode.
func (d *Dropout) SetTraining(on bool) { d.train = on }

// Params implements Layer (dropout has none).
func (d *Dropout) Params() []*Param { return nil }

// Forward applies the mask in training mode, identity otherwise. The
// returned slice is reused by the next training-mode Forward; copy it if
// it must survive that call.
func (d *Dropout) Forward(x []float64) []float64 {
	if !d.train || d.p == 0 {
		d.mask = nil
		return x
	}
	if cap(d.mask) < len(x) {
		d.mask = make([]float64, len(x))
	}
	d.mask = d.mask[:len(x)]
	keep := 1 - d.p
	if cap(d.y) < len(x) {
		d.y = make([]float64, len(x))
	}
	y := d.y[:len(x)]
	for i := range y {
		y[i] = 0
	}
	for i, v := range x {
		if d.g.Float64() < keep {
			d.mask[i] = 1 / keep
			y[i] = v * d.mask[i]
		} else {
			d.mask[i] = 0
		}
	}
	return y
}

// Backward applies the same mask to dy in place and returns it.
func (d *Dropout) Backward(dy []float64) []float64 {
	if d.mask == nil {
		return dy
	}
	for i := range dy {
		dy[i] *= d.mask[i]
	}
	return dy
}
