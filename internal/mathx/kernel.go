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
// multiple of four rows. The result is dst's memory when dst has the
// capacity, else fresh.
func PackRows4(dst, w []float64, n int) []float64 {
	if n <= 0 || len(w)%(4*n) != 0 {
		panic(fmt.Sprintf("mathx: PackRows4 %d weights in rows of %d", len(w), n))
	}
	wp := dst[:0]
	if cap(wp) < len(w) {
		wp = make([]float64, len(w))
	}
	wp = wp[:len(w)]
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

// BackRowsX is the input half of the backward pass of the mat-vec a = W·x
// over the row-major matrix w of len(da) rows and n = len(dx) columns,
// given da = dL/da: for each row j with da[j] != 0, in j order, it adds
// da[j]*w[j*n+k] to dx[k] (dL/dx) for every k. A zero row is skipped, so a
// -0 in dx stays -0; a NaN row is not. Each dx[k] gets the scalar loop's
// operations in its order, every product rounded before it is added, so
// the vector path is bit-identical to it. dx must not overlap w or da. It
// panics on a shape mismatch.
func BackRowsX(w, da, dx []float64) {
	n := len(dx)
	if len(w) != len(da)*n {
		panic(fmt.Sprintf("mathx: BackRowsX %d weights for %d rows of %d", len(w), len(da), n))
	}
	k0 := 0
	if vector && n >= 4 {
		// Columns [0, n&^3) on the vector path; each column's sum runs over
		// the rows in order either way, so the tail may follow on its own.
		backRowsXAVX2(w, da, dx)
		if k0 = n &^ 3; k0 == n {
			return
		}
	}
	for j, d := range da {
		if d == 0 {
			continue
		}
		for k, wv := range w[j*n+k0 : (j+1)*n] {
			dx[k0+k] += d * wv
		}
	}
}

// BackRowsG is the weight half of the same backward pass, summed over a
// batch: g holds rows [lo, lo+len(g)/n) of the len(das[p]) x n gradient
// dL/dW (n = len(xs[p]), the same for every p), and for each pair p in
// order and each of those rows j with das[p][j] != 0 it adds
// das[p][j]*xs[p][k] to g[(j-lo)*n+k] for every k. Every element therefore
// takes the additions of a per-pair loop over the rows — the serial
// accumulation of one pair after another — in the same order, products
// rounded first, zero rows skipped, whichever rows g covers and on either
// path. g must not overlap any das[p] or xs[p]. It panics on a shape
// mismatch.
func BackRowsG(g []float64, lo int, das, xs [][]float64) {
	if len(das) != len(xs) {
		panic(fmt.Sprintf("mathx: BackRowsG %d gradient rows for %d inputs", len(das), len(xs)))
	}
	if len(xs) == 0 {
		return
	}
	n := len(xs[0])
	if n == 0 || len(g)%n != 0 {
		panic(fmt.Sprintf("mathx: BackRowsG %d gradients in rows of %d", len(g), n))
	}
	hi := lo + len(g)/n
	for p, x := range xs {
		if len(x) != n || lo < 0 || len(das[p]) < hi {
			panic(fmt.Sprintf("mathx: BackRowsG pair %d: %d gradients for rows [%d, %d), %d inputs, want %d", p, len(das[p]), lo, hi, len(x), n))
		}
	}
	// The vector path takes the whole tiles of four rows and the columns
	// [0, n&^3); every element gets its pairs in order either way, so the
	// rest may follow on its own.
	rows, r4, k0 := hi-lo, 0, 0
	if vector && n >= 4 {
		r4, k0 = rows&^3, n&^3
		if r4 > 0 {
			backRowsGAVX2(g, n, lo, das, xs)
		}
		if r4 == rows && k0 == n {
			return
		}
	}
	for p, x := range xs {
		for j, d := range das[p][lo:hi] {
			if d == 0 {
				continue
			}
			from := 0
			if j < r4 {
				from = k0
			}
			gr := g[j*n+from : (j+1)*n]
			for k, xv := range x[from:] {
				gr[k] += d * xv
			}
		}
	}
}

// AdamStep holds one Adam step's constants (see AdamUpdate). The field
// order is the vector kernel's.
type AdamStep struct {
	B1, B2                 float64 // the moments' decay rates β1, β2
	OneMinusB1, OneMinusB2 float64 // 1-β1, 1-β2
	C1, C2                 float64 // the bias corrections 1-β1^t, 1-β2^t
	LR, Eps                float64
	Clip                   float64 // the per-element gradient clamp; none unless > 0
}

// AdamUpdate applies one Adam step to every element i of w, with gradient
// g[i] and moments m[i] and v[i]: g, clamped to [-Clip, Clip] when Clip > 0,
// updates m[i] = B1*m[i] + (1-B1)*g and v[i] = B2*v[i] + ((1-B2)*g)*g, then
// w[i] -= (LR*(m[i]/C1)) / (sqrt(v[i]/C2) + Eps), and g[i] becomes 0. Each
// operation is one IEEE operation, taken in this order on either path, so
// the vector path is bit-identical to the scalar loop. The four slices
// must have one length.
func AdamUpdate(w, g, m, v []float64, s *AdamStep) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("mathx: AdamUpdate lengths %d, %d, %d, %d", len(w), len(g), len(m), len(v)))
	}
	i := 0
	if vector {
		adamAVX2(w, g, m, v, s)
		i = len(w) &^ 3
	}
	for ; i < len(w); i++ {
		gi := g[i]
		if s.Clip > 0 {
			if gi > s.Clip {
				gi = s.Clip
			} else if gi < -s.Clip {
				gi = -s.Clip
			}
		}
		m[i] = s.B1*m[i] + s.OneMinusB1*gi
		v[i] = s.B2*v[i] + s.OneMinusB2*gi*gi
		mHat := m[i] / s.C1
		vHat := v[i] / s.C2
		w[i] -= s.LR * mHat / (math.Sqrt(vHat) + s.Eps)
		g[i] = 0
	}
}
