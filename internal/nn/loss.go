package nn

import (
	"fmt"
	"math"
)

// BCEWithLogits computes the weighted binary cross-entropy of logits z
// against targets y in {0,1} (soft targets in [0,1] also work), returning
// the scalar loss and filling dz with dL/dz. The sigmoid is fused into the
// loss so the computation is stable for any logit magnitude:
//
//	L = -sum_i w_i * (y_i*log(sigma(z_i)) + (1-y_i)*log(1-sigma(z_i)))
//	dL/dz_i = w_i * (sigma(z_i) - y_i)
//
// weights may be nil, meaning all ones. dz may alias a scratch buffer; it
// must have len(z).
func BCEWithLogits(z, y, weights, dz []float64) float64 {
	if len(y) != len(z) || len(dz) != len(z) || (weights != nil && len(weights) != len(z)) {
		panic(fmt.Sprintf("nn: BCEWithLogits shape mismatch z=%d y=%d w=%d dz=%d",
			len(z), len(y), len(weights), len(dz)))
	}
	var loss float64
	for i, zi := range z {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		l, d := BCEWithLogitsScalar(zi, y[i], w)
		loss += l
		dz[i] = d
	}
	return loss
}

// BCEWithLogitsScalar is the single-output form; it returns the weighted
// loss -w*(y*LogSigmoid(z) + (1-y)*LogSigmoid(-z)) and dL/dz =
// w*(Sigmoid(z) - y). The three functions exponentiate the same e =
// exp(-|z|) and take log1p(e), so both are computed once and each
// function's branch finishes from them: every result is bit-identical to
// calling mathx.LogSigmoid and mathx.Sigmoid for any z but a NaN. At z = ±0
// both LogSigmoid(z) and LogSigmoid(-z) take their x >= 0 branch.
func BCEWithLogitsScalar(z, y, weight float64) (loss, dz float64) {
	e := math.Exp(-math.Abs(z))
	lp := math.Log1p(e)
	logSig, logSigNeg, sig := -lp, -lp, 1/(1+e)
	if z < 0 {
		logSig, sig = z-lp, e/(1+e)
	}
	if z > 0 {
		logSigNeg = -z - lp
	}
	loss = -weight * (y*logSig + (1-y)*logSigNeg)
	dz = weight * (sig - y)
	return loss, dz
}
