package mathx

import (
	"math"
	"os"
	"strings"
)

// Implemented in kernel_amd64.s. The slice kernels do whole chunks of four
// from the start and return how many values they wrote (see vectorPart);
// backRowsXAVX2 and backRowsGAVX2 do BackRowsX's and BackRowsG's columns
// [0, n&^3), adamAVX2 AdamUpdate's elements [0, len(w)&^3); exp4 is
// math.Exp on four arguments in [-708, 708], and expLog1pAVX2 does
// ExpLog1p's whole chunks until one it cannot take. log1p4 is math.Log1p
// on the lanes it does not return set (those it leaves as they were): the
// tests run the vector log1p through it on any input. None of them keeps
// a pointer it is given, and each says so (go:noescape): otherwise every
// caller's stack array that reaches one would be moved to the heap.
//
//go:noescape
func sigmoidAVX2(dst, src []float64) int

//go:noescape
func tanhAVX2(dst, src []float64) int

//go:noescape
func matVecPackedAVX2(dst, wp, x, a1, a2 []float64)

//go:noescape
func backRowsXAVX2(w, da, dx []float64)

//go:noescape
func backRowsGAVX2(g []float64, n, lo int, das, xs [][]float64)

//go:noescape
func adamAVX2(w, g, m, v []float64, s *AdamStep)

//go:noescape
func exp4(x *[4]float64)

//go:noescape
func log1p4(x *[4]float64) int

//go:noescape
func expLog1pAVX2(e, lp, z []float64) int
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() uint32

// vectorSupported reports whether the AVX2 kernels may run: the CPU has
// them, GODEBUG leaves the runtime's avx, avx2 and fma switches on (math.Exp
// takes its FMA path under the same condition), and on the probes the
// kernels equal math.Exp, Sigmoid, math.Tanh and (ExpLog1p's kernel)
// math.Log1p bit for bit.
func vectorSupported() bool {
	return cpuHasAVX2FMA() && !godebugOff(os.Getenv("GODEBUG")) && selfCheck()
}

// cpuHasAVX2FMA reports whether CPUID lists AVX2 and FMA and XGETBV says
// the OS saves the YMM registers.
func cpuHasAVX2FMA() bool {
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx&(fma|osxsave|avx) != fma|osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// godebugOff reports whether the GODEBUG value env turns the avx, avx2 or
// fma CPU feature off, read as the runtime reads it: the last cpu.NAME=on|off
// field naming a feature wins, and cpu.all names them all.
func godebugOff(env string) bool {
	off := map[string]bool{}
	for _, f := range strings.Split(env, ",") {
		k, v, _ := strings.Cut(f, "=")
		for _, name := range [...]string{"avx", "avx2", "fma"} {
			if (k == "cpu.all" || k == "cpu."+name) && (v == "on" || v == "off") {
				off[name] = v == "off"
			}
		}
	}
	return off["avx"] || off["avx2"] || off["fma"]
}

// probes are the self-check's inputs, four at a time. math.Exp's FMA and
// non-FMA paths round the first two differently (as they do about 9% of
// [-20, 20]), so a runtime whose math.Exp took the non-FMA path fails the
// check instead of diverging from it.
var probes = [12]float64{
	17.6203635218005, -11.108423319728491, 0, math.Copysign(0, -1),
	0.3, -0.625, 0.625, 1,
	-3.5, 20, 44.014845965556525, -300,
}

// logitProbes take exp(-|z|) into each of the vector log1p's paths: its
// k != 0 branch (with the k++ rescaling), its k = 0 one, x-x*x*0.5 below
// 2**-29 and x itself below 2**-54.
var logitProbes = [8]float64{0.3, -0.5, 0.88, -0.89, 2.5, -21, 38, -700}

// selfCheck compares each vector kernel with its scalar function on probes.
func selfCheck() bool {
	var sig, tanh [len(probes)]float64
	if sigmoidAVX2(sig[:], probes[:]) != len(probes) || tanhAVX2(tanh[:], probes[:]) != len(probes) {
		return false
	}
	var e, lp [len(logitProbes)]float64
	if expLog1pAVX2(e[:], lp[:], logitProbes[:]) != len(logitProbes) {
		return false
	}
	for i, z := range logitProbes {
		we := math.Exp(-math.Abs(z))
		if math.Float64bits(e[i]) != math.Float64bits(we) || math.Float64bits(lp[i]) != math.Float64bits(math.Log1p(we)) {
			return false
		}
	}
	for i := 0; i < len(probes); i += 4 {
		e := [4]float64(probes[i : i+4])
		exp4(&e)
		for l, x := range probes[i : i+4] {
			if math.Float64bits(e[l]) != math.Float64bits(math.Exp(x)) ||
				math.Float64bits(sig[i+l]) != math.Float64bits(Sigmoid(x)) ||
				math.Float64bits(tanh[i+l]) != math.Float64bits(math.Tanh(x)) {
				return false
			}
		}
	}
	return true
}
