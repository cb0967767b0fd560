//go:build !amd64

package mathx

// The kernels are amd64 assembly: elsewhere vector stays false and nothing
// calls these.
func vectorSupported() bool                  { return false }
func sigmoidAVX2(dst, src []float64) int     { panic("mathx: no vector kernels") }
func tanhAVX2(dst, src []float64) int        { panic("mathx: no vector kernels") }
func matVecPackedAVX2(dst, wp, x []float64)  { panic("mathx: no vector kernels") }
func backRowsAVX2(g, w, da, x, dx []float64) { panic("mathx: no vector kernels") }
