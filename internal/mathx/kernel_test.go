package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// paths runs f once per kernel path this machine has: the vector path when
// it was selected, then the scalar path.
func paths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := vector
	defer func() { vector = saved }()
	for _, v := range []bool{true, false} {
		if v && !saved {
			continue
		}
		vector = v
		t.Run(fmt.Sprintf("vector=%v", v), f)
	}
}

// specials are the inputs where the vector kernels switch behaviour: the
// IEEE specials, subnormals, the edges of the vector exp's range (708 for
// Sigmoid, 354 for Tanh), math.tanh's branch points 0.625 and 0.5*MAXLOG,
// and the neighbours of each.
func specials() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var out []float64
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022,
		708, 709, 354, 355, 0.625, halfMaxLog, 1, 0.5, 17.6203635218005, 11.108423319728491,
		math.MaxFloat64,
	} {
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			out = append(out, y, -y)
		}
	}
	return append(out, math.NaN(), math.Inf(1), math.Inf(-1))
}

// checkBits requires dst[i] to equal f(src[i]) bit for bit.
func checkBits(t *testing.T, what string, dst, src []float64, f func(float64) float64) {
	t.Helper()
	for i, x := range src {
		if want := f(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v) [%d of %d] = %v (%#x), want %v (%#x)", what, x, i, len(src), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

type elementwise struct {
	name string
	into func(dst, src []float64)
	f    func(float64) float64
}

var kernels = []elementwise{{"SigmoidInto", SigmoidInto, Sigmoid}, {"TanhInto", TanhInto, math.Tanh}}

// TestKernelBitsRandom: millions of inputs, as random bit patterns and as
// random values across and just past the vector range, each equal to the
// scalar function bit for bit.
func TestKernelBitsRandom(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	g := NewRNG(31)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		switch i % 4 {
		case 0:
			src[i] = math.Float64frombits(HashU64(31, uint64(i)))
		case 1:
			src[i] = (g.Float64()*2 - 1) * 20
		case 2:
			src[i] = (g.Float64()*2 - 1) * 720
		default:
			src[i] = (g.Float64()*2 - 1) * math.Ldexp(1, g.Intn(64)-40)
		}
	}
	paths(t, func(t *testing.T) {
		for _, k := range kernels {
			k.into(dst, src)
			checkBits(t, k.name, dst, src, k.f)
		}
	})
}

// TestKernelBitsSpecials puts every special value in every lane of a chunk
// of otherwise ordinary values, so the out-of-range fallback is taken from
// each position, and checks lengths 0-9, unaligned subslices and in-place
// calls.
func TestKernelBitsSpecials(t *testing.T) {
	sp := specials()
	paths(t, func(t *testing.T) {
		for _, k := range kernels {
			for _, s := range sp {
				for lane := 0; lane < 9; lane++ {
					src := []float64{0.1, -2, 3.5, -0.7, 1.25, -40, 8, 0.01, -300}
					src[lane] = s
					dst := make([]float64, len(src))
					k.into(dst, src)
					checkBits(t, k.name, dst, src, k.f)
				}
			}
			back := make([]float64, 16)
			for n := 0; n <= 9; n++ {
				for off := 0; off < 4; off++ {
					src := make([]float64, n)
					for i := range src {
						src[i] = sp[(i*7+off)%len(sp)]
					}
					dst := back[off : off+n]
					k.into(dst, src)
					checkBits(t, k.name, dst, src, k.f)
					inPlace := append([]float64(nil), src...)
					k.into(inPlace, inPlace)
					checkBits(t, k.name+" in place", inPlace, src, k.f)
				}
			}
		}
	})
}

func TestKernelPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SigmoidInto accepted dst and src of different lengths")
		}
	}()
	SigmoidInto(make([]float64, 3), make([]float64, 4))
}

// TestPackRows4Layout pins the layout: wp[(b*n+i)*4+l] = w[(4b+l)*n+i].
func TestPackRows4Layout(t *testing.T) {
	const rows, n = 8, 3
	w := make([]float64, rows*n)
	for i := range w {
		w[i] = float64(i)
	}
	wp := PackRows4(w, n)
	for b := 0; b < rows/4; b++ {
		for i := 0; i < n; i++ {
			for l := 0; l < 4; l++ {
				if got, want := wp[(b*n+i)*4+l], w[(4*b+l)*n+i]; got != want {
					t.Fatalf("wp[(%d*%d+%d)*4+%d] = %v, want %v", b, n, i, l, got, want)
				}
			}
		}
	}
}

// TestMatVecPackedBits: every row count from 4 to 96 at widths 1, 3, 24 and
// 33, on random values and on specials (infinities, subnormals, signed
// zeros), each row bit-identical to Dot on the unpacked row.
func TestMatVecPackedBits(t *testing.T) {
	g := NewRNG(32)
	// No NaN inputs: which payload a product of two NaNs keeps depends on
	// operand order, which neither Dot nor the kernels promise.
	var sp []float64
	for _, v := range specials() {
		if !math.IsNaN(v) {
			sp = append(sp, v)
		}
	}
	paths(t, func(t *testing.T) {
		for _, n := range []int{1, 3, 24, 33} {
			for rows := 4; rows <= 96; rows += 4 {
				for trial := 0; trial < 2; trial++ {
					w, x := make([]float64, rows*n), make([]float64, n)
					for i := range w {
						w[i] = g.Float64()*2 - 1
						if trial == 1 && i%5 == 0 {
							w[i] = sp[g.Intn(len(sp))]
						}
					}
					for i := range x {
						x[i] = g.Float64()*2 - 1
						if trial == 1 && i%4 == 0 {
							x[i] = sp[g.Intn(len(sp))]
						}
					}
					dst := make([]float64, rows)
					MatVecPacked(dst, PackRows4(w, n), x)
					for r := range dst {
						if want := Dot(w[r*n:(r+1)*n], x); math.Float64bits(dst[r]) != math.Float64bits(want) {
							t.Fatalf("n=%d rows=%d row %d: %v, Dot %v", n, rows, r, dst[r], want)
						}
					}
				}
			}
		}
	})
}

func TestMatVecPackedPanicsOnShape(t *testing.T) {
	for _, c := range []struct{ rows, w, n int }{{3, 9, 3}, {4, 11, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatVecPacked accepted %d rows of %d with %d weights", c.rows, c.n, c.w)
				}
			}()
			MatVecPacked(make([]float64, c.rows), make([]float64, c.w), make([]float64, c.n))
		}()
	}
}

// backRowsRef is BackRows' loop as the LSTM and Dense backward passes had
// it inline: the oracle both paths are held to.
func backRowsRef(g, w, da, x, dx []float64) {
	n := len(x)
	for j, d := range da {
		if d == 0 {
			continue
		}
		for k, xv := range x {
			g[j*n+k] += d * xv
			dx[k] += d * w[j*n+k]
		}
	}
}

// checkBackRows runs BackRows on copies of g and dx laid at offset off in
// fresh backing arrays and requires both to equal backRowsRef's bit for bit.
func checkBackRows(t *testing.T, what string, g, w, da, x, dx []float64, off int) {
	t.Helper()
	wantG, wantDx := append([]float64(nil), g...), append([]float64(nil), dx...)
	backRowsRef(wantG, w, da, x, wantDx)
	gotG := append(make([]float64, off), g...)[off:]
	gotDx := append(make([]float64, off), dx...)[off:]
	BackRows(gotG, w, da, x, gotDx)
	for i := range wantG {
		if math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("%s: g[%d] = %v, want %v", what, i, gotG[i], wantG[i])
		}
	}
	for k := range wantDx {
		if math.Float64bits(gotDx[k]) != math.Float64bits(wantDx[k]) {
			t.Fatalf("%s: dx[%d] = %v, want %v", what, k, gotDx[k], wantDx[k])
		}
	}
}

// TestBackRowsBits: widths on both sides of the four-lane chunk, rows whose
// da is +0 or -0 (skipped, so a -0 already in g or dx survives), specials
// but no NaN (see TestMatVecPackedBits) in every operand, and unaligned
// subslices, each result bit-identical to the scalar loop.
func TestBackRowsBits(t *testing.T) {
	g := NewRNG(35)
	var sp []float64
	for _, v := range specials() {
		if !math.IsNaN(v) {
			sp = append(sp, v)
		}
	}
	negZero := math.Copysign(0, -1)
	paths(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 24, 32, 36} {
			for _, rows := range []int{1, 5, 12} {
				for trial := 0; trial < 3; trial++ {
					fill := func(v []float64) []float64 {
						for i := range v {
							v[i] = g.Float64()*2 - 1
							if trial == 1 && g.Intn(4) == 0 {
								v[i] = sp[g.Intn(len(sp))]
							}
							if trial == 2 && g.Intn(3) == 0 {
								v[i] = negZero
							}
						}
						return v
					}
					w, x := fill(make([]float64, rows*n)), fill(make([]float64, n))
					gr, dx := fill(make([]float64, rows*n)), fill(make([]float64, n))
					da := fill(make([]float64, rows))
					da[0] = 0
					if rows > 1 {
						da[rows-1] = negZero
					}
					what := fmt.Sprintf("n=%d rows=%d trial=%d", n, rows, trial)
					checkBackRows(t, what, gr, w, da, x, dx, trial+1)
				}
			}
		}
	})
}

func TestBackRowsPanicsOnShape(t *testing.T) {
	for _, c := range []struct{ g, w, da, x, dx int }{{6, 6, 2, 3, 2}, {5, 6, 2, 3, 3}, {6, 7, 2, 3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BackRows accepted shapes %+v", c)
				}
			}()
			BackRows(make([]float64, c.g), make([]float64, c.w), make([]float64, c.da), make([]float64, c.x), make([]float64, c.dx))
		}()
	}
}

// FuzzKernelBits: any bytes, read as float64s, through every kernel on both
// paths, at an unaligned offset and in place, against the scalar functions.
func FuzzKernelBits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		paths(t, func(t *testing.T) {
			for _, k := range kernels {
				back := make([]float64, len(vals)+3)
				dst := back[off%4 : int(off%4)+len(vals)]
				k.into(dst, vals)
				checkBits(t, k.name, dst, vals, k.f)
				inPlace := append([]float64(nil), vals...)
				k.into(inPlace, inPlace)
				checkBits(t, k.name+" in place", inPlace, vals, k.f)
			}
			n := int(off)%7 + 1
			rows := (len(vals) - n) / n / 4 * 4
			if rows <= 0 {
				return
			}
			w, x := vals[:rows*n], vals[rows*n:rows*n+n]
			for _, v := range vals[:rows*n+n] {
				if math.IsNaN(v) {
					return // NaN payloads: see TestMatVecPackedBits
				}
			}
			dst := make([]float64, rows)
			MatVecPacked(dst, PackRows4(w, n), x)
			for r := range dst {
				if want := Dot(w[r*n:(r+1)*n], x); math.Float64bits(dst[r]) != math.Float64bits(want) {
					t.Fatalf("MatVecPacked row %d of %d x %d: %v, Dot %v", r, rows, n, dst[r], want)
				}
			}
			// BackRows reads the same matrix with its rows as gradients:
			// da from w's first column, g and dx from the bytes again.
			da := make([]float64, rows)
			for r := range da {
				da[r] = w[r*n]
			}
			checkBackRows(t, "BackRows", w, w, da, x, vals[:n], int(off%4))
		})
	})
}
