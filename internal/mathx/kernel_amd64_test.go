package mathx

import (
	"math"
	"os"
	"testing"
)

// TestKernelPath: GODEBUG's avx, avx2 and fma switches select the scalar
// path, with math.Exp on its non-FMA path (cpu.fma=off) the self-check
// alone rejects the vector kernels, and otherwise the self-check passes. scripts/check.sh runs the kernel tests
// under both switches.
func TestKernelPath(t *testing.T) {
	env := os.Getenv("GODEBUG")
	t.Logf("GODEBUG=%q: AVX2+FMA %v, vector path %v", env, cpuHasAVX2FMA(), vector)
	if godebugOff(env) && vector {
		t.Fatal("the vector path is on although GODEBUG turns a CPU feature it needs off")
	}
	if !cpuHasAVX2FMA() {
		return
	}
	fmaExp := math.Float64bits(math.Exp(probes[0])) == math.Float64bits(exp4Of(probes[0]))
	t.Logf("math.Exp(%v) equals the vector exp: %v", probes[0], fmaExp)
	if !fmaExp && selfCheck() {
		t.Fatal("the self-check passed although math.Exp takes its non-FMA path")
	}
	// Otherwise a kernel that disagrees with its scalar function would
	// only switch the vector path off, and the bit tests would pass on the
	// scalar one.
	if fmaExp && !godebugOff(env) && !vector {
		t.Fatal("the self-check refused the vector kernels on a CPU and runtime that should run them")
	}
}

func exp4Of(x float64) float64 {
	e := [4]float64{x, x, x, x}
	exp4(&e)
	return e[0]
}

func TestGodebugOff(t *testing.T) {
	for env, want := range map[string]bool{
		"":                           false,
		"cpu.avx2=off":               true,
		"cpu.fma=off":                true,
		"cpu.avx=off,madvdontneed=1": true,
		"cpu.all=off":                true,
		"cpu.all=off,cpu.avx=on,cpu.avx2=on,cpu.fma=on": false,
		"cpu.avx2=off,cpu.avx2=on":                      false,
		"cpu.sse41=off,cpu.avx512f=off":                 false,
		"cpu.avx2":                                      false,
	} {
		if got := godebugOff(env); got != want {
			t.Errorf("godebugOff(%q) = %v, want %v", env, got, want)
		}
	}
}

// TestExp4MatchesMathExp: the vector exp on its whole range, lanes
// distinct, against math.Exp bit for bit.
func TestExp4MatchesMathExp(t *testing.T) {
	if !cpuHasAVX2FMA() || !vector {
		t.Skip("no vector path on this CPU or runtime")
	}
	g := NewRNG(34)
	for i := 0; i < 1<<18; i++ {
		var e, x [4]float64
		for l := range x {
			switch l {
			case 0:
				x[l] = (g.Float64()*2 - 1) * 708
			case 1:
				x[l] = (g.Float64()*2 - 1) * 20
			default:
				x[l] = (g.Float64()*2 - 1) * math.Ldexp(1, g.Intn(60)-50)
			}
		}
		if i == 0 {
			x = [4]float64{708, -708, 0, math.Copysign(0, -1)}
		}
		e = x
		exp4(&e)
		for l := range x {
			if want := math.Exp(x[l]); math.Float64bits(e[l]) != math.Float64bits(want) {
				t.Fatalf("exp4 lane %d: exp(%v) = %v, want %v", l, x[l], e[l], want)
			}
		}
	}
}

// TestLog1p4TakesItsRange: the vector log1p leaves no lane of its range
// to the scalar function but those math.log1p's iu == 0 case takes, and
// the row kernel no logit in the vector exp's range, so the bit-identity
// tests exercise the vector arithmetic and not the fallback.
func TestLog1p4TakesItsRange(t *testing.T) {
	if !cpuHasAVX2FMA() || !vector {
		t.Skip("no vector path on this CPU or runtime")
	}
	g := NewRNG(45)
	for i := 0; i < 1<<16; i++ {
		var x [4]float64
		for l := range x {
			if l%2 == 0 {
				x[l] = g.Float64()*(1-0x1p-20) - 1 + 0x1p-20
			} else {
				x[l] = g.Float64() * math.Ldexp(1, g.Intn(80)-28)
			}
		}
		in := x
		if left := log1p4(&x); left != 0 {
			t.Fatalf("log1p4(%v) left lanes %04b", in, left)
		}
	}
	x := [4]float64{1, 3, -0.5, 0x1p53}
	if left := log1p4(&x); left != 15 || x != [4]float64{1, 3, -0.5, 0x1p53} {
		t.Fatalf("log1p4 on its iu == 0 cases and 2**53: left %04b, lanes %v", left, x)
	}
	// Logits: every nonzero one in the vector exp's range is taken.
	z := make([]float64, 1<<12)
	for i := range z {
		z[i] = (g.Float64()*2 - 1) * 700
	}
	e, lp := make([]float64, len(z)), make([]float64, len(z))
	if n := expLog1pAVX2(e, lp, z); n != len(z) {
		t.Fatalf("expLog1pAVX2 stopped at logit %d of %d, %v", n, len(z), z[n:n+4])
	}
}
