package nn

import "eventhit/internal/mathx"

// Dropout is inverted dropout: at training time each unit is zeroed with
// probability p and survivors are scaled by 1/(1-p), so inference needs no
// rescaling and skips the layer. The layer owns the stream the masks are
// drawn from; a mask, once drawn, is applied by ApplyMask and MaskGrad.
type Dropout struct {
	p float64
	g *mathx.RNG
}

// NewDropout returns a dropout layer with drop probability p in [0, 1).
func NewDropout(p float64, g *mathx.RNG) *Dropout {
	if !(p >= 0 && p < 1) {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{p: p, g: g}
}

// Params implements Layer (dropout has none).
func (d *Dropout) Params() []*Param { return nil }

// Mask draws the next mask from the layer's stream, one draw per unit in
// order: 1/(1-p) for a kept unit, 0 for a dropped one. With p = 0 every
// unit is kept at scale 1 and nothing is drawn.
func (d *Dropout) Mask(mask []float64) {
	if d.p == 0 {
		mathx.Fill(mask, 1)
		return
	}
	keep := 1 - d.p
	for i := range mask {
		if d.g.Float64() < keep {
			mask[i] = 1 / keep
		} else {
			mask[i] = 0
		}
	}
}

// ApplyMask sets y to x under mask: x[i]*mask[i] for a kept unit, 0 for a
// dropped one.
func ApplyMask(y, x, mask []float64) {
	for i, m := range mask {
		if m != 0 {
			y[i] = x[i] * m
		} else {
			y[i] = 0
		}
	}
}

// MaskGrad scales dy in place by the mask its forward pass applied.
func MaskGrad(dy, mask []float64) {
	for i, m := range mask {
		dy[i] *= m
	}
}
