package nn

import (
	"math"

	"eventhit/internal/mathx"
)

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction.
type Adam struct {
	params []*Param
	t      int
	step   mathx.AdamStep // the constants of step t
	m, v   [][]float64
}

// NewAdam returns an Adam optimizer over params with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*Param, lr float64) *Adam {
	// Variables, not constants: 1-β is a float64 subtraction (0.1 as a
	// constant would be the double nearest 1/10, a different value).
	beta1, beta2 := 0.9, 0.999
	a := &Adam{params: params, step: mathx.AdamStep{
		B1: beta1, B2: beta2, OneMinusB1: 1 - beta1, OneMinusB2: 1 - beta2, LR: lr, Eps: 1e-8,
	}}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.W))
		a.v[i] = make([]float64, len(p.W))
	}
	return a
}

// Reset readies a to optimize params, which must be shaped as the ones it
// was made for, at learning rate lr, as NewAdam would: step count, moments
// and clamp start over, the moments' memory is reused.
func (a *Adam) Reset(params []*Param, lr float64) {
	a.params, a.t, a.step.LR, a.step.Clip = params, 0, lr, 0
	for i := range a.m {
		clear(a.m[i])
		clear(a.v[i])
	}
}

// SetGradClip sets a symmetric per-element gradient clamp; 0 disables.
func (a *Adam) SetGradClip(c float64) { a.step.Clip = c }

// Step applies one Adam update and zeroes the gradients.
func (a *Adam) Step() {
	a.Begin()
	for i, p := range a.params {
		a.Update(i, 0, len(p.W))
	}
}

// Begin starts an update step; Update then applies it element by element.
// Step is Begin followed by Update over every element of every parameter;
// the update is element-wise, so Updates over disjoint ranges may run
// concurrently, and in any order they equal Step once each element is
// covered.
func (a *Adam) Begin() {
	a.t++
	a.step.C1 = 1 - math.Pow(a.step.B1, float64(a.t))
	a.step.C2 = 1 - math.Pow(a.step.B2, float64(a.t))
}

// Update applies the step Begin started to elements [lo, hi) of parameter
// i and zeroes their gradients.
func (a *Adam) Update(i, lo, hi int) {
	p := a.params[i]
	mathx.AdamUpdate(p.W[lo:hi], p.G[lo:hi], a.m[i][lo:hi], a.v[i][lo:hi], &a.step)
}
