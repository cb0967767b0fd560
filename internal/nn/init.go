package nn

import (
	"math"

	"eventhit/internal/mathx"
)

// XavierInit fills w (interpreted as a fanOut x fanIn matrix) with samples
// from U(-sqrt(6/(fanIn+fanOut)), +sqrt(6/(fanIn+fanOut))), the Glorot
// uniform scheme that keeps activation variance stable through depth: w[i]
// is (2u_i − 1)·limit for g's next len(w) draws u_i. A nil g leaves w as it
// is, for a caller that copies weights in.
func XavierInit(w []float64, fanIn, fanOut int, g *mathx.RNG) {
	if g == nil {
		return
	}
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for len(w) > 0 {
		c := w[:min(len(w), 512)] // scaled while it is in the L1 cache
		g.Float64s(c)
		for i, u := range c {
			c[i] = (2*u - 1) * limit
		}
		w = w[len(c):]
	}
}
