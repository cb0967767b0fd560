package nn

import "fmt"

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

// Pack returns the layer's current weights packed.
func (d *Dense) Pack() *PackedDense {
	p := &PackedDense{}
	d.PackInto(p)
	return p
}
