package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction.
type Adam struct {
	params   []*Param
	lr       float64
	beta1    float64
	beta2    float64
	eps      float64
	t        int
	m, v     [][]float64
	gradClip float64 // if > 0, per-element clamp on gradients
}

// NewAdam returns an Adam optimizer over params with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.W))
		a.v[i] = make([]float64, len(p.W))
	}
	return a
}

// SetGradClip sets a symmetric per-element gradient clamp; 0 disables.
func (a *Adam) SetGradClip(c float64) { a.gradClip = c }

// Step applies one Adam update and zeroes the gradients.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.G[j]
			if a.gradClip > 0 {
				if g > a.gradClip {
					g = a.gradClip
				} else if g < -a.gradClip {
					g = -a.gradClip
				}
			}
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.W[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
			p.G[j] = 0
		}
	}
}
