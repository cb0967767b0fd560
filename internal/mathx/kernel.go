package mathx

import (
	"fmt"
	"math"
)

// vector selects the AVX2 kernels (kernel_amd64.s), four values per
// instruction; without it the kernels run the scalar functions, their test
// oracle. Either way every output is bit-identical to the scalar function:
// a lane is one value, taken through the same IEEE operations in the same
// order, and nothing is summed across lanes. Set once at start-up; tests
// clear it to force the scalar path.
var vector = vectorSupported()

// SigmoidInto sets dst[i] = Sigmoid(src[i]). dst and src may be the same
// slice; other overlaps are not allowed. It panics if the lengths differ.
func SigmoidInto(dst, src []float64) {
	for i := vectorPart(dst, src, sigmoidAVX2, Sigmoid); i < len(src); i++ {
		dst[i] = Sigmoid(src[i])
	}
}

// TanhInto sets dst[i] = math.Tanh(src[i]), with SigmoidInto's aliasing
// rule.
func TanhInto(dst, src []float64) {
	for i := vectorPart(dst, src, tanhAVX2, math.Tanh); i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// vectorPart does the whole chunks of four at the front of src on the
// vector path and returns how many values it set. vec stops at a chunk
// holding a value its exp cannot take without a special case (an infinity,
// a NaN, an overflow or a subnormal result); that chunk goes through f.
func vectorPart(dst, src []float64, vec func(dst, src []float64) int, f func(float64) float64) int {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mathx: %d outputs for %d inputs", len(dst), len(src)))
	}
	i := 0
	for vector && len(src)-i >= 4 {
		if i += vec(dst[i:], src[i:]); len(src)-i < 4 {
			break
		}
		for j := i; j < i+4; j++ {
			dst[j] = f(src[j])
		}
		i += 4
	}
	return i
}

// PackRows4 returns the row-major matrix w of n columns in the layout
// MatVecPacked reads, blocks of four rows stored column by column:
// wp[(b*n+i)*4+l] = w[(4b+l)*n+i]. It panics unless n > 0 and w holds a
// multiple of four rows.
func PackRows4(w []float64, n int) []float64 {
	if n <= 0 || len(w)%(4*n) != 0 {
		panic(fmt.Sprintf("mathx: PackRows4 %d weights in rows of %d", len(w), n))
	}
	wp := make([]float64, len(w))
	for r := 0; r < len(w)/n; r += 4 {
		blk, w0, w1, w2, w3 := wp[r*n:(r+4)*n], w[r*n:][:n], w[(r+1)*n:][:n], w[(r+2)*n:][:n], w[(r+3)*n:][:n]
		for i := range w0 {
			blk[4*i], blk[4*i+1], blk[4*i+2], blk[4*i+3] = w0[i], w1[i], w2[i], w3[i]
		}
	}
	return wp
}

// MatVecPacked is MatVec over PackRows4(w, len(x)): dst[r] is bit-identical
// to Dot(w[r*n:(r+1)*n], x), one accumulator per row summed in index order,
// each product rounded before it is added. It panics unless len(dst) is a
// multiple of four and wp holds len(dst)*len(x) weights.
func MatVecPacked(dst, wp, x []float64) {
	if len(dst)%4 != 0 || len(wp) != len(dst)*len(x) {
		panic(fmt.Sprintf("mathx: MatVecPacked %d weights for %d rows of %d", len(wp), len(dst), len(x)))
	}
	if vector {
		matVecPackedAVX2(dst, wp, x)
		return
	}
	for r := 0; r < len(dst); r += 4 {
		w := wp[r*len(x) : (r+4)*len(x)]
		var s0, s1, s2, s3 float64
		// len(w) == 4*len(x); testing both drops the bounds checks.
		for i := 0; len(w) >= 4 && i < len(x); i++ {
			v := x[i]
			s0 += w[0] * v
			s1 += w[1] * v
			s2 += w[2] * v
			s3 += w[3] * v
			w = w[4:]
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
}

// BackRows is the backward pass of the mat-vec a = W·x over the row-major
// matrix w of len(da) rows and n = len(x) columns, given da = dL/da: for
// each row j with da[j] != 0, in j order, it adds da[j]*x[k] to g[j*n+k]
// (dL/dW) and da[j]*w[j*n+k] to dx[k] (dL/dx) for every k. A zero row is
// skipped, so -0 in g or dx stays -0; a NaN row is not. Each element gets
// the scalar loop's operations in its order, every product rounded before
// it is added, so the vector path is bit-identical to it. g and dx must
// not overlap each other or w, da and x. It panics on a shape mismatch.
func BackRows(g, w, da, x, dx []float64) {
	n := len(x)
	if len(w) != len(da)*n || len(g) != len(w) || len(dx) != n {
		panic(fmt.Sprintf("mathx: BackRows %d weights, %d gradients for %d rows of %d, dx %d", len(w), len(g), len(da), n, len(dx)))
	}
	k0 := 0
	if vector && n >= 4 {
		// Columns [0, n&^3) on the vector path; each column's sum runs over
		// the rows in order either way, so the tail may follow on its own.
		backRowsAVX2(g, w, da, x, dx)
		if k0 = n &^ 3; k0 == n {
			return
		}
	}
	for j, d := range da {
		if d == 0 {
			continue
		}
		wr, gr := w[j*n+k0:(j+1)*n], g[j*n+k0:(j+1)*n]
		for k, xv := range x[k0:] {
			gr[k] += d * xv
			dx[k0+k] += d * wr[k]
		}
	}
}
