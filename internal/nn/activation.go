package nn

// ReLU clamps x to max(0, x) in place: every value that is not above 0,
// NaN included, becomes 0.
func ReLU(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// ReLUGrad gates dy in place by the ReLU output y it flows back through:
// where y is not above 0 the unit was clamped and its gradient is 0.
func ReLUGrad(dy, y []float64) {
	for i, v := range y {
		if !(v > 0) {
			dy[i] = 0
		}
	}
}
