package nn

import (
	"fmt"
	"math"
)

// CheckGradients compares analytically accumulated gradients against
// central-difference numerical gradients. loss must run a full forward pass
// and return the scalar loss WITHOUT touching gradients; backward must run
// forward+backward, accumulating gradients into params (which are zeroed
// first). It returns the worst relative error and an error describing the
// first parameter exceeding tol.
//
// The relative error uses the standard normalization
// |ga-gn| / max(1e-8, |ga|+|gn|).
func CheckGradients(loss func() float64, backward func(), params []*Param, eps, tol float64) (float64, error) {
	for _, p := range params {
		p.ZeroGrad()
	}
	backward()
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.G...)
	}
	worst := 0.0
	var firstErr error
	for i, p := range params {
		for j := range p.W {
			orig := p.W[j]
			p.W[j] = orig + eps
			lp := loss()
			p.W[j] = orig - eps
			lm := loss()
			p.W[j] = orig
			gn := (lp - lm) / (2 * eps)
			ga := analytic[i][j]
			rel := math.Abs(ga-gn) / math.Max(1e-8, math.Abs(ga)+math.Abs(gn))
			if rel > worst {
				worst = rel
			}
			if rel > tol && firstErr == nil {
				firstErr = fmt.Errorf("nn: gradient mismatch %s[%d]: analytic=%g numeric=%g rel=%g",
					p.Name, j, ga, gn, rel)
			}
		}
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	return worst, firstErr
}
