//go:build !amd64

package mathx

// The kernels are amd64 assembly: elsewhere vector stays false and nothing
// calls these.
func vectorSupported() bool                         { return false }
func sigmoidAVX2(dst, src []float64) int            { panic("mathx: no vector kernels") }
func tanhAVX2(dst, src []float64) int               { panic("mathx: no vector kernels") }
func matVecPackedAVX2(dst, wp, x, a1, a2 []float64) { panic("mathx: no vector kernels") }
func backRowsXAVX2(w, da, dx []float64)             { panic("mathx: no vector kernels") }
func backRowsGAVX2(g []float64, n, lo int, das, xs [][]float64) {
	panic("mathx: no vector kernels")
}
func adamAVX2(w, g, m, v []float64, s *AdamStep) { panic("mathx: no vector kernels") }
func exp4(x *[4]float64)                         { panic("mathx: no vector kernels") }
func log1p4(x *[4]float64) int                   { panic("mathx: no vector kernels") }
func expLog1pAVX2(e, lp, z []float64) int        { panic("mathx: no vector kernels") }
