package nn

import (
	"fmt"
	"math"

	"eventhit/internal/mathx"
)

// BCEWithLogitsScalar is the single-output form; it returns the weighted
// loss -w*(y*LogSigmoid(z) + (1-y)*LogSigmoid(-z)) and dL/dz =
// w*(Sigmoid(z) - y). The three functions exponentiate the same e =
// exp(-|z|) and take log1p(e), so both are computed once and each
// function's branch finishes from them: every result is bit-identical to
// calling mathx.LogSigmoid and mathx.Sigmoid for any z but a NaN. At z = ±0
// both LogSigmoid(z) and LogSigmoid(-z) take their x >= 0 branch.
func BCEWithLogitsScalar(z, y, weight float64) (loss, dz float64) {
	e := math.Exp(-math.Abs(z))
	return bceFrom(z, e, math.Log1p(e), y, weight)
}

// bceFrom finishes BCEWithLogitsScalar from e = exp(-|z|) and lp =
// log1p(e).
func bceFrom(z, e, lp, y, weight float64) (loss, dz float64) {
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

// BCEWithLogitsRow is BCEWithLogitsScalar along a row: for each i in order
// it adds the loss of logit z[i] against target y[i] at weight w[i] to acc,
// and sets dz[i] to its gradient; it returns the sum. A block of logits at
// a time takes exp(-|z|) and log1p from mathx.ExpLog1p, the AVX2 kernels
// where the CPU has them, and the rest of each loss per element, so every
// loss, every gradient and the sum are the scalar loop's bit for bit. dz
// may be z (each logit is read before its gradient replaces it); it panics
// unless y, w and dz have len(z).
func BCEWithLogitsRow(acc float64, z, y, w, dz []float64) float64 {
	if len(y) != len(z) || len(w) != len(z) || len(dz) != len(z) {
		panic(fmt.Sprintf("nn: BCEWithLogitsRow shape mismatch z=%d y=%d w=%d dz=%d",
			len(z), len(y), len(w), len(dz)))
	}
	var e, lp [64]float64
	for lo := 0; lo < len(z); lo += len(e) {
		n := min(len(e), len(z)-lo)
		mathx.ExpLog1p(e[:n], lp[:n], z[lo:lo+n])
		for i := range n {
			loss, d := bceFrom(z[lo+i], e[i], lp[i], y[lo+i], w[lo+i])
			acc += loss
			dz[lo+i] = d
		}
	}
	return acc
}
